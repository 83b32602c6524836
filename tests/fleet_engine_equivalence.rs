//! The fleet engine's two load-bearing equivalences:
//!
//! * the event-driven engine — which steps only the shards its due list
//!   names and exchanges sparse per-destination parcels — produces the
//!   report of the tick-stepped reference, which steps every shard
//!   every tick, serially, in id order;
//! * that report does not depend on the worker count.
//!
//! The fleet is small but exercises every way work crosses hosts:
//! a mostly idle fleet (16 hosts, 3 hot), the tuple-space attack on,
//! and an upcall flood saturating a bounded slow path so
//! `UpcallDropped` receipts travel back to another host.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test helpers: fail loudly

use pi_attack::{AttackSchedule, AttackSpec, CovertSequence};
use pi_cms::PolicyDialect;
use pi_core::SimTime;
use pi_datapath::{DpConfig, PipelineMode, UpcallPipelineConfig};
use pi_sim::{FleetBuilder, FleetReport, SimConfig};
use pi_traffic::ChurnSource;

const HOSTS: usize = 16;
const VICTIM: [u8; 4] = [10, 0, 0, 2];
const ATTACKER: [u8; 4] = [10, 1, 0, 66];

fn ip(a: [u8; 4]) -> u32 {
    u32::from_be_bytes(a)
}

fn sparse_fleet(event_driven: bool, workers: usize) -> FleetReport {
    let dp = DpConfig {
        pipeline: PipelineMode::Bounded(UpcallPipelineConfig {
            queue_capacity: 16,
            handler_cycles_per_step: 50_000,
            port_quota_per_step: None,
        }),
        ..DpConfig::default()
    };
    let mut b = FleetBuilder::new(SimConfig {
        duration: SimTime::from_millis(2_500),
        sample_interval: SimTime::from_millis(250),
        event_driven,
        workers,
        ..SimConfig::default()
    });
    // Host 0's small flow table keeps the flood's flows upcalling.
    b.add_host(DpConfig {
        flow_limit: 64,
        ..dp.clone()
    });
    for _ in 1..HOSTS {
        b.add_host(dp.clone());
    }
    // Hot set: hosts 0–2. Every other host carries one silent pod.
    b.add_pod(0, ip(VICTIM));
    b.add_pod(1, ip(ATTACKER));
    b.add_pod(1, ip([10, 1, 0, 2]));
    b.add_pod(2, ip([10, 2, 0, 2]));
    for host in 3..HOSTS {
        b.add_pod(host, ip([10, host as u8, 0, 2]));
    }

    // The injected policy on the attacker's own pod on host 1, and its
    // covert stream arriving over the fabric from host 2.
    let spec = AttackSpec::masks_512(PolicyDialect::Kubernetes);
    let table = spec.compile();
    b.install_acl(ip(ATTACKER), table);
    b.add_source(
        2,
        Box::new(AttackSchedule::new(
            CovertSequence::new(spec.build_target(ip(ATTACKER))),
            1e6,
            SimTime::from_millis(300),
        )),
    );
    // An upcall flood injected at host 0 pins its bounded slow path…
    b.add_source(
        0,
        Box::new(
            AttackSchedule::new(
                CovertSequence::new(spec.build_target(ip([10, 1, 0, 2]))),
                10e6,
                SimTime::from_millis(100),
            )
            .upcall_flood(),
        ),
    );
    // …so the victim's fresh connections from host 1 tail-drop there
    // and the drops are reported back across the fabric.
    b.add_source(
        1,
        Box::new(
            ChurnSource::new(ip([10, 0, 10, 0]), ip(VICTIM), 80, 64, 1_000.0)
                .starting_at(SimTime::from_millis(600))
                .named("victim"),
        ),
    );
    // A second client population on host 2: the victim's host hears
    // from two senders in most ticks, and with its slow path saturated
    // the order it merges them in decides which connections are dropped.
    b.add_source(
        2,
        Box::new(
            ChurnSource::new(ip([10, 0, 20, 0]), ip(VICTIM), 80, 64, 700.0)
                .starting_at(SimTime::from_millis(600))
                .named("victim"),
        ),
    );
    b.build().unwrap().run()
}

/// Everything the simulation decided, Debug-rendered; leaves out only
/// what legitimately names the execution (worker count, per-worker
/// harness profiles, tick-skipping accounting — compared separately).
fn physics(r: &FleetReport) -> String {
    format!(
        "{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\nhosts={}",
        r.source_totals,
        r.throughput_bps,
        r.offered_bps,
        r.masks,
        r.megaflows,
        r.cpu_util,
        r.handler_cps,
        r.control_cps,
        r.policy_updates,
        r.switch_stats,
        r.upcall_stats,
        r.defense,
        r.faults,
        r.attribution,
        r.hosts,
    )
}

#[test]
fn event_engine_matches_the_stepped_reference_for_every_worker_count() {
    let stepped = sparse_fleet(false, 1);
    let event = sparse_fleet(true, 1);

    // The scenario did what it claims, so the equalities below are not
    // vacuous: masks exploded on host 1, the victim's connections were
    // dropped at host 0's upcall queue and accounted on host 1, and
    // the idle hosts switched nothing.
    let churn = &stepped.source_totals[2];
    assert!(churn.dropped_upcall > 0, "{churn:?}");
    assert!(stepped.upcall_stats[0].queue_drops > 0);
    assert!(stepped.masks[1].max() > 400.0, "{}", stepped.masks[1].max());
    for host in 3..HOSTS {
        assert_eq!(stepped.switch_stats[host].packets, 0, "host {host}");
    }

    assert_eq!(physics(&event), physics(&stepped), "event vs stepped");
    // Both engines account for every shard tick and saw the same
    // events; only the event engine skipped any.
    let total = |r: &FleetReport| r.engine.shard_ticks_stepped + r.engine.shard_ticks_skipped;
    assert_eq!(total(&stepped), HOSTS as u64 * 2_500);
    assert_eq!(total(&event), total(&stepped));
    assert_eq!(stepped.engine.shard_ticks_skipped, 0);
    assert_eq!(
        event.engine.events_processed,
        stepped.engine.events_processed
    );
    assert!(
        event.engine.shard_ticks_skipped > 12 * 2_000,
        "idle hosts are skipped: {:?}",
        event.engine
    );

    for workers in [2, 3] {
        let parallel = sparse_fleet(true, workers);
        assert_eq!(parallel.workers, workers);
        assert_eq!(physics(&parallel), physics(&event), "{workers} workers");
        assert_eq!(parallel.engine, event.engine, "{workers} workers");
    }
}
