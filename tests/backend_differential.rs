//! Differential test: the `OvsCache` backend adapter is **bit-identical**
//! to the direct [`VSwitch`] path.
//!
//! `pi_backend` promises that putting the OVS pipeline behind
//! `Box<dyn DataplaneBackend>` (which is how every simulator node now
//! drives it) changes nothing — not verdicts, not paths, not cycle
//! accounting, not cache dynamics, not telemetry. These tests replay
//! the same scripted workloads through both call surfaces and compare
//! every observable event, Debug-rendered so any divergence fails with
//! the first differing event in context.
//!
//! Two workloads cover the two scenario families the repo's benches are
//! built on: the fig3-style tuple-space injection (inline pipeline,
//! policy updates mid-run, revalidator sweeps) and the
//! upcall-saturation flood (bounded pipeline, handler drains, quota
//! flips, quarantine). A third test pins the fleet engine's
//! worker-count determinism for the *non*-OVS backends, which replay
//! node shards across threads.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test helpers: fail loudly

use pi_attack::AttackSpec;
use pi_backend::{build_backend, DataplaneBackend, DefenseAction};
use pi_classifier::PolicyUpdate;
use pi_cms::{Cidr, IngressRule, NetworkPolicy, PolicyCompiler, PolicyDialect, Protocol};
use pi_core::{FlowKey, SimTime};
use pi_datapath::{DpConfig, PipelineMode, UpcallPipelineConfig, VSwitch};

const VICTIM_IP: [u8; 4] = [10, 1, 0, 10];
const ATTACKER_IP: [u8; 4] = [10, 1, 0, 66];

fn victim_policy() -> NetworkPolicy {
    NetworkPolicy {
        name: "victim-iperf".into(),
        ingress: vec![IngressRule {
            from: vec![Cidr::new(u32::from_be_bytes([10, 0, 0, 0]), 8).unwrap()],
            ports: vec![(Protocol::Tcp, Some(5201))],
        }],
    }
}

fn malicious_table() -> pi_classifier::FlowTable {
    AttackSpec::masks_512(PolicyDialect::Kubernetes).compile()
}

/// The scripted operations both drivers replay.
enum Op {
    Batch(Vec<FlowKey>, SimTime),
    Drain(SimTime),
    Revalidate(SimTime),
    ReinstallAttackerAcl,
    SetQuota(Option<u32>),
    Quarantine(u32),
    Release(u32),
}

/// The fig3-style workload: victim iperf + covert populate/scan stream
/// on the inline pipeline, with a mid-run policy re-install (the flush)
/// and revalidator sweeps.
fn fig3_ops() -> Vec<Op> {
    let spec = AttackSpec::masks_512(PolicyDialect::Kubernetes);
    let seq = pi_attack::CovertSequence::new(spec.build_target(u32::from_be_bytes(ATTACKER_IP)));
    let victim = |p: u16| FlowKey::tcp([10, 0, 0, 10], VICTIM_IP, 40_000 + p, 5201);
    let mut ops = Vec::new();
    let mut populate = seq.populate_packets();
    let mut scan_n = 0u64;
    for step in 0u64..400 {
        let now = SimTime::from_millis(10 * step);
        let mut batch = Vec::new();
        // Steady victim traffic: an established flow plus light churn.
        batch.push(victim(0));
        batch.push(victim((step % 64) as u16));
        // The covert stream: populate first, then unique scans.
        for _ in 0..4 {
            match populate.next() {
                Some(pkt) => batch.push(pkt),
                None => {
                    batch.push(seq.scan_packet(scan_n));
                    scan_n += 1;
                }
            }
        }
        ops.push(Op::Batch(batch, now));
        if step % 100 == 99 {
            ops.push(Op::Revalidate(now));
        }
        if step == 250 {
            // The policy flap: re-install the attacker's ACL (a global
            // flush on the default config).
            ops.push(Op::ReinstallAttackerAcl);
        }
    }
    ops
}

/// The saturation-style workload: a unique-destination flood and victim
/// churn on the bounded pipeline, with handler drains every step, a
/// mid-run quota flip and a quarantine/release pair.
fn saturation_ops() -> Vec<Op> {
    let victim_conn = |n: u64| {
        FlowKey::tcp(
            [10, 2, (n >> 8) as u8, (n & 0xff) as u8],
            VICTIM_IP,
            30_000 + (n % 16_000) as u16,
            5201,
        )
    };
    let flood = |n: u64| {
        FlowKey::tcp(
            [10, 9, 0, 1],
            [10, 200, (n >> 8) as u8, (n & 0xff) as u8],
            7_777,
            80,
        )
    };
    let mut ops = Vec::new();
    let mut flood_n = 0u64;
    for step in 0u64..300 {
        let now = SimTime::from_millis(5 * step);
        let mut batch = Vec::new();
        for _ in 0..8 {
            batch.push(flood(flood_n));
            flood_n += 1;
        }
        batch.push(victim_conn(step));
        ops.push(Op::Batch(batch, now));
        ops.push(Op::Drain(now));
        if step == 100 {
            ops.push(Op::SetQuota(Some(8)));
        }
        if step == 200 {
            ops.push(Op::Quarantine(u32::from_be_bytes(ATTACKER_IP)));
        }
        if step == 250 {
            ops.push(Op::Release(u32::from_be_bytes(ATTACKER_IP)));
        }
        if step % 50 == 49 {
            ops.push(Op::Revalidate(now));
        }
    }
    ops
}

/// Replays `ops` against the **direct** `VSwitch` surface, recording
/// every observable as a Debug-rendered event.
fn drive_direct(dp: DpConfig, ops: &[Op]) -> Vec<String> {
    let mut sw = VSwitch::new(dp);
    sw.attach_pod(u32::from_be_bytes(VICTIM_IP), 1);
    sw.attach_pod(u32::from_be_bytes(ATTACKER_IP), 2);
    sw.install_acl(
        u32::from_be_bytes(VICTIM_IP),
        PolicyCompiler.compile_k8s(&victim_policy()),
    );
    sw.install_acl(u32::from_be_bytes(ATTACKER_IP), malicious_table());
    let mut trace = Vec::new();
    for op in ops {
        match op {
            Op::Batch(keys, now) => {
                let mut events = Vec::new();
                let n = VSwitch::process_batch(&mut sw, keys, *now, |i, o| {
                    events.push(format!("{i} {o:?}"));
                    true
                });
                trace.push(format!("batch n={n}"));
                trace.extend(events);
            }
            Op::Drain(now) => {
                let mut events = Vec::new();
                let n = VSwitch::drain_upcalls(&mut sw, *now, |r| events.push(format!("{r:?}")));
                trace.push(format!("drain n={n}"));
                trace.extend(events);
            }
            Op::Revalidate(now) => {
                VSwitch::revalidate(&mut sw, *now);
                trace.push(format!(
                    "reval masks={} megaflows={}",
                    sw.mask_count(),
                    sw.megaflow_count()
                ));
            }
            Op::ReinstallAttackerAcl => {
                let out = sw.apply_install_acl(u32::from_be_bytes(ATTACKER_IP), malicious_table());
                trace.push(format!("reinstall {out:?}"));
            }
            Op::SetQuota(q) => {
                trace.push(format!("quota {}", sw.set_port_quota(*q)));
            }
            Op::Quarantine(ip) => {
                sw.quarantine(*ip);
                trace.push(format!("quarantine megaflows={}", sw.megaflow_count()));
            }
            Op::Release(ip) => {
                trace.push(format!("release {}", sw.release_quarantine(*ip)));
            }
        }
    }
    trace.push(format!("stats {:?}", sw.stats()));
    trace.push(format!("emc {:?}", sw.emc_stats()));
    trace.push(format!("upcall {:?}", sw.upcall_stats()));
    trace.push(format!(
        "cache masks={} megaflows={} depth={}",
        sw.mask_count(),
        sw.megaflow_count(),
        sw.upcall_queue_depth()
    ));
    trace.push(format!("attr {:?}", pi_mitigation::attribute_masks(&sw)));
    trace
}

/// Replays `ops` against the **boxed trait** surface the simulators use.
fn drive_boxed(dp: DpConfig, ops: &[Op]) -> Vec<String> {
    let mut be = build_backend(dp, pi_datapath::CostModel::default());
    be.attach_pod(u32::from_be_bytes(VICTIM_IP), 1);
    be.attach_pod(u32::from_be_bytes(ATTACKER_IP), 2);
    be.install_acl(
        u32::from_be_bytes(VICTIM_IP),
        PolicyCompiler.compile_k8s(&victim_policy()),
    );
    be.install_acl(u32::from_be_bytes(ATTACKER_IP), malicious_table());
    let be: &mut dyn DataplaneBackend = &mut *be;
    let mut trace = Vec::new();
    for op in ops {
        match op {
            Op::Batch(keys, now) => {
                let mut events = Vec::new();
                let n = be.process_batch(keys, *now, &mut |i, o| {
                    events.push(format!("{i} {o:?}"));
                    true
                });
                trace.push(format!("batch n={n}"));
                trace.extend(events);
            }
            Op::Drain(now) => {
                let mut events = Vec::new();
                let n = be.drain_upcalls(*now, &mut |r| events.push(format!("{r:?}")));
                trace.push(format!("drain n={n}"));
                trace.extend(events);
            }
            Op::Revalidate(now) => {
                be.revalidate(*now);
                let cache = be.snapshot();
                trace.push(format!(
                    "reval masks={} megaflows={}",
                    cache.masks, cache.megaflows
                ));
            }
            Op::ReinstallAttackerAcl => {
                let update = PolicyUpdate::InstallAcl {
                    ip: u32::from_be_bytes(ATTACKER_IP),
                    table: malicious_table(),
                };
                let out = be.apply_update(update, true);
                trace.push(format!("reinstall {out:?}"));
            }
            Op::SetQuota(q) => {
                let took_effect = be.actuate(DefenseAction::SetPortQuota(*q));
                trace.push(format!("quota {took_effect}"));
            }
            Op::Quarantine(ip) => {
                be.actuate(DefenseAction::Quarantine(*ip));
                trace.push(format!("quarantine megaflows={}", be.snapshot().megaflows));
            }
            Op::Release(ip) => {
                let released = be.actuate(DefenseAction::ReleaseQuarantine(*ip));
                trace.push(format!("release {released}"));
            }
        }
    }
    let end = be.snapshot();
    trace.push(format!("stats {:?}", end.switch));
    trace.push(format!("emc {:?}", end.emc));
    trace.push(format!("upcall {:?}", end.upcall));
    trace.push(format!(
        "cache masks={} megaflows={} depth={}",
        end.masks, end.megaflows, end.upcall_backlog
    ));
    trace.push(format!("attr {:?}", be.attribution()));
    trace
}

fn assert_identical(direct: &[String], boxed: &[String]) {
    for (i, (d, b)) in direct.iter().zip(boxed.iter()).enumerate() {
        assert_eq!(d, b, "first divergence at event {i}");
    }
    assert_eq!(direct.len(), boxed.len(), "trace lengths differ");
}

#[test]
fn ovs_adapter_is_bit_identical_on_the_fig3_workload() {
    let dp = DpConfig::default();
    let ops = fig3_ops();
    let direct = drive_direct(dp.clone(), &ops);
    let boxed = drive_boxed(dp, &ops);
    assert_identical(&direct, &boxed);
    // The workload actually exercised the attacked pipeline: masks
    // exploded and the mid-run flush happened.
    assert!(direct.iter().any(|e| e.starts_with("reinstall")));
    assert!(
        direct.last().unwrap().contains("ip_dst"),
        "attribution populated: {}",
        direct.last().unwrap()
    );
}

#[test]
fn ovs_adapter_is_bit_identical_on_the_saturation_workload() {
    let dp = DpConfig {
        flow_limit: 512,
        pipeline: PipelineMode::Bounded(UpcallPipelineConfig {
            queue_capacity: 64,
            handler_cycles_per_step: 400_000,
            port_quota_per_step: None,
        }),
        ..DpConfig::default()
    };
    let ops = saturation_ops();
    let direct = drive_direct(dp.clone(), &ops);
    let boxed = drive_boxed(dp, &ops);
    assert_identical(&direct, &boxed);
    // The bounded pipeline was actually saturated and drained.
    assert!(direct
        .iter()
        .any(|e| e.starts_with("drain") && e != "drain n=0"));
}

#[test]
fn fleet_worker_count_is_deterministic_for_every_backend() {
    use pi_datapath::BackendKind;
    use pi_sim::{FleetBuilder, SimConfig};
    use pi_traffic::FanSource;

    let run = |workers: usize| {
        let cfg = SimConfig {
            duration: SimTime::from_secs(3),
            workers,
            ..SimConfig::default()
        };
        let mut b = FleetBuilder::new(cfg);
        // One host per backend kind; ring traffic between them.
        let kinds = BackendKind::ALL;
        for (i, kind) in kinds.iter().enumerate() {
            let dp = DpConfig {
                backend: *kind,
                ..DpConfig::default()
            };
            let host = b.add_host(dp);
            b.add_pod(host, u32::from_be_bytes([10, i as u8, 0, 1]));
        }
        for i in 0..kinds.len() as u8 {
            let next = (i + 1) % kinds.len() as u8;
            let key = FlowKey::tcp([10, i, 0, 1], [10, next, 0, 1], 1000 + i as u16, 80);
            b.add_source(
                i as usize,
                Box::new(FanSource::new(vec![key], 800, 500.0).named("cbr")),
            );
        }
        b.build().unwrap().run()
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one.source_totals, four.source_totals);
    assert_eq!(one.switch_stats, four.switch_stats);
    assert_eq!(
        format!("{:?}", one.upcall_stats),
        format!("{:?}", four.upcall_stats)
    );
    // Every backend actually carried traffic.
    for (i, stats) in one.switch_stats.iter().enumerate() {
        assert!(stats.packets > 0, "host {i} idle: {stats:?}");
    }
}
