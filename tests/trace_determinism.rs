//! The tracing layer's two load-bearing guarantees, end to end:
//!
//! 1. **Determinism.** With tracing enabled, a fleet run under faults,
//!    a lossy-but-reliable control plane, and an adaptive defense
//!    exports **byte-identical** Chrome trace JSON and Prometheus
//!    snapshots for 1, 2, and 4 workers — the crown-jewel worker-count
//!    invariance extends to the trace.
//! 2. **Invisibility.** Tracing (enabled or disabled) never changes
//!    the physics: the traced run's report matches the untraced run's
//!    cell for cell, and a default (disabled) run records nothing.
//!
//! Plus the engine self-profiling surface: `SimReport::engine` agrees
//! between the event-driven and tick-stepped single-host engines.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test helpers: fail loudly

use policy_injection::pi_cms::{IngressRule, Protocol};
use policy_injection::prelude::*;

/// One fleet cell with everything the tracer instruments: a flapping
/// attacker and a defended victim on host 0 (which also crashes
/// mid-flap), a reliable control plane pushing updates through a
/// lossy, duplicating, reordering channel on host 1, and bystander
/// traffic on host 2.
fn run_fleet(workers: usize, trace: TraceConfig) -> FleetReport {
    let mut b = FleetBuilder::new(SimConfig {
        duration: SimTime::from_secs(6),
        trace,
        workers,
        ..SimConfig::default()
    });
    let clients = 256usize;
    let victim_ip = u32::from_be_bytes([10, 0, 0, 10]);
    let attacker_ip = u32::from_be_bytes([10, 0, 0, 66]);
    let far_ip = u32::from_be_bytes([10, 1, 0, 10]);
    for _ in 0..3 {
        b.add_host(DpConfig::default());
    }
    b.add_pod(0, victim_ip);
    b.add_pod(0, attacker_ip);
    b.add_pod(1, far_ip);

    let client_ip = |i: usize| [10, 2, (i >> 8) as u8, (i & 0xff) as u8];
    let victim_policy = NetworkPolicy {
        name: "victim-peers".into(),
        ingress: vec![IngressRule {
            from: (0..clients).map(|i| Cidr::host(client_ip(i))).collect(),
            ports: vec![(Protocol::Tcp, Some(5201))],
        }],
    };
    b.install_acl(victim_ip, PolicyCompiler.compile_k8s(&victim_policy));
    let attacker_table = PolicyCompiler.compile_k8s(&NetworkPolicy {
        name: "attacker".into(),
        ingress: vec![IngressRule {
            from: vec![Cidr::new(u32::from_be_bytes([10, 0, 0, 0]), 8).unwrap()],
            ports: vec![(Protocol::Tcp, Some(8080))],
        }],
    });
    b.install_acl(attacker_ip, attacker_table.clone());

    // Host 0: the flap train, an adaptive defense watching it, and a
    // crash in the middle of the attack.
    b.attach_control_plane(
        0,
        AttackSchedule::policy_flap(
            attacker_ip,
            &attacker_table,
            SimTime::from_secs(2),
            SimTime::from_secs(6),
            SimTime::from_millis(20),
        ),
    );
    b.attach_defense(0, DefenseController::with_defaults());
    b.attach_faults(
        0,
        FaultSchedule::new().crash(SimTime::from_secs(3), SimTime::from_millis(300)),
    );

    // Host 1: benign ACL churn delivered at-least-once through a lossy
    // channel, repaired by retries and reconciliation.
    b.attach_faults(
        1,
        FaultSchedule::new().channel(ChannelFaultConfig {
            drop_p: 0.2,
            dup_p: 0.1,
            delay: SimTime::from_millis(2),
            jitter: SimTime::from_millis(5),
            seed: 7,
        }),
    );
    let far_table = PolicyCompiler.compile_k8s(&NetworkPolicy {
        name: "far".into(),
        ingress: vec![IngressRule {
            from: vec![Cidr::new(u32::from_be_bytes([10, 2, 0, 0]), 16).unwrap()],
            ports: vec![(Protocol::Tcp, Some(80))],
        }],
    });
    let mut program = ControlPlaneProgram::new();
    for i in 0..8u64 {
        program.install_acl(
            SimTime::from_millis(500 + 600 * i),
            far_ip,
            far_table.clone(),
        );
    }
    b.attach_reliable_control_plane(1, program, ReliabilityConfig::default());

    // Victim fan from host 1, bystander chatter from host 2.
    let keys: Vec<FlowKey> = (0..clients)
        .map(|i| FlowKey::tcp(client_ip(i), [10, 0, 0, 10], 41_000 + i as u16, 5201))
        .collect();
    b.add_source(
        1,
        Box::new(FanSource::new(keys, 400, 20_000.0).named("victim")),
    );
    let key = FlowKey::tcp([10, 2, 9, 9], [10, 1, 0, 10], 1000, 80);
    b.add_source(2, Box::new(CbrSource::new(key, 800, 500.0)));
    b.build().unwrap().run()
}

/// The physics fingerprint: every report component except the trace
/// and the per-worker engine profiles (which describe the harness).
fn physics(r: &FleetReport) -> String {
    format!(
        "{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}",
        r.source_totals,
        r.throughput_bps,
        r.masks,
        r.megaflows,
        r.cpu_util,
        r.control_cps,
        r.switch_stats,
        r.policy_updates,
        r.faults,
    )
}

#[test]
fn traced_exports_are_byte_identical_for_1_2_and_4_workers() {
    let runs: Vec<FleetReport> = [1, 2, 4]
        .iter()
        .map(|&w| run_fleet(w, TraceConfig::enabled()))
        .collect();
    let chrome: Vec<String> = runs.iter().map(|r| chrome_trace_json(&r.trace)).collect();
    let prom: Vec<String> = runs.iter().map(|r| prometheus_snapshot(&r.trace)).collect();
    validate_json(&chrome[0]).expect("chrome export parses");
    assert_eq!(
        chrome[0], chrome[1],
        "1 vs 2 workers: chrome export differs"
    );
    assert_eq!(
        chrome[0], chrome[2],
        "1 vs 4 workers: chrome export differs"
    );
    assert_eq!(
        prom[0], prom[1],
        "1 vs 2 workers: prometheus snapshot differs"
    );
    assert_eq!(
        prom[0], prom[2],
        "1 vs 4 workers: prometheus snapshot differs"
    );

    // The trace is not vacuous: every instrumented subsystem appears.
    let trace = &runs[0].trace;
    assert!(trace.events.len() > 1_000, "events: {}", trace.events.len());
    let count = |name: &str| {
        trace
            .events
            .iter()
            .filter(|e| e.kind.name() == name)
            .count()
    };
    assert!(count("policy_update") > 100, "flap train traced");
    assert!(count("cache_flush") > 100, "flushes traced");
    assert!(count("batch_window") > 0, "fast path traced");
    assert_eq!(count("crash"), 1, "the crash traced");
    assert!(count("reconcile") > 0, "reconciliation traced");
    assert!(count("control_channel") > 0, "lossy channel traced");
    // And the causal chain is populated: flushes carry the causing
    // update's id.
    assert!(
        trace
            .events
            .iter()
            .any(|e| e.kind.name() == "cache_flush" && e.cause.is_some()),
        "flushes must carry causality ids"
    );
}

#[test]
fn tracing_is_invisible_to_the_physics() {
    let untraced = run_fleet(2, TraceConfig::default());
    let traced = run_fleet(2, TraceConfig::enabled());
    assert_eq!(
        physics(&untraced),
        physics(&traced),
        "enabling tracing changed simulation results"
    );
    // Disabled tracing records nothing at all.
    assert!(untraced.trace.is_empty());
    assert_eq!(untraced.trace.dropped, 0);
    assert!(!traced.trace.is_empty());
}

#[test]
fn sim_engine_stats_agree_between_event_driven_and_stepped() {
    let run = |event_driven: bool| {
        let params = PolicyChurnParams {
            duration: SimTime::from_secs(4),
            attack_start: SimTime::from_secs(1),
            ..Default::default()
        };
        let (mut sim, _handles) = policy_churn_scenario(&params);
        sim.set_event_driven(event_driven);
        sim.run()
    };
    let event = run(true);
    let stepped = run(false);
    assert_eq!(stepped.engine.shard_ticks_skipped, 0);
    assert_eq!(
        stepped.engine.shard_ticks_stepped,
        event.engine.shard_ticks_stepped + event.engine.shard_ticks_skipped,
        "the engines must account for every tick"
    );
    assert_eq!(
        event.engine.events_processed, stepped.engine.events_processed,
        "both engines must agree on the work done"
    );
    // Engine choice is an execution detail: the physics agree too.
    assert_eq!(
        format!("{:?}", event.switch_stats),
        format!("{:?}", stepped.switch_stats)
    );
    assert_eq!(
        format!("{:?}", event.source_totals),
        format!("{:?}", stepped.source_totals)
    );
    // Both reports ran untraced: the trace is empty, not absent.
    assert!(event.trace.is_empty() && stepped.trace.is_empty());
}
