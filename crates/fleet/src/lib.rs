//! # pi-fleet — sharded multi-host cluster simulation
//!
//! The paper demonstrates policy injection on a two-node testbed
//! ([`pi_sim`]); the real threat model is a multi-tenant cloud where one
//! attacker degrades many co-located tenants across a fleet of hosts.
//! This crate scales the same physics out: every host is a **shard**
//! owning its [`pi_datapath::VSwitch`], traffic sources and per-tenant
//! accounting; shards are stepped by a pool of **worker threads**; and
//! cross-host packets travel through bounded channels under an
//! epoch-per-tick synchronizer (the conservative-time style of parallel
//! simulators like rustasim).
//!
//! Determinism is a hard guarantee, not an accident: all cross-shard
//! traffic is merged in sending-shard order at epoch boundaries, so a
//! run's results are **bit-identical for any worker count** — the
//! regression test pins a 4-host run at 1 vs 4 workers byte for byte.
//!
//! The pieces:
//!
//! * [`FleetBuilder`] / [`FleetSim`] — the sharded engine (per-host
//!   stepping is shared with `pi_sim` via [`pi_sim::NodeCell`]).
//! * [`ClusterBuilder`] — tenant placement (round-robin, bin-packed,
//!   adversarial co-location) on the [`pi_cms`] tenant/pod model, with
//!   policy injection through real CMS admission.
//! * [`FleetReport`] / [`BlastRadius`] — per-source and per-host time
//!   series aggregated into "how many tenants/hosts degrade per
//!   injected policy".
//! * [`scenario`] — the `fleet_colocation` and `fleet_migration`
//!   experiments; `pi_bench`'s `fleet_scaling` sweeps hosts × workers.

pub mod config;
pub mod engine;
pub mod placement;
pub mod report;
pub mod routes;
pub mod scenario;
mod shard;

pub use config::FleetConfig;
pub use engine::{FleetBuilder, FleetSim};
pub use pi_sim::{TraceConfig, TraceEvent, TraceEventKind, TraceReport};
pub use placement::ClusterBuilder;
pub use report::{BlastRadius, EngineProfile, EngineStats, FleetReport, FLUSH_LOG_CAP};
pub use routes::RouteTable;
pub use scenario::{
    fleet_colocation, fleet_migration, fleet_sparse, ColocationHandles, ColocationParams,
    MigrationHandles, MigrationParams, SparseHandles, SparseParams,
};

#[cfg(test)]
mod tests {
    use super::*;
    use pi_core::{FlowKey, SimTime};
    use pi_datapath::DpConfig;
    use pi_sim::SimConfig;
    use pi_traffic::CbrSource;

    fn small_cfg(secs: u64, workers: usize) -> FleetConfig {
        FleetConfig {
            sim: SimConfig {
                duration: SimTime::from_secs(secs),
                ..SimConfig::default()
            },
            workers,
        }
    }

    fn ip(a: [u8; 4]) -> u32 {
        u32::from_be_bytes(a)
    }

    #[test]
    fn single_host_delivery_matches_two_node_engine_semantics() {
        let mut b = FleetBuilder::new(small_cfg(5, 1));
        let h0 = b.add_host(DpConfig::default());
        b.add_pod(h0, ip([10, 0, 0, 2]));
        let key = FlowKey::tcp([10, 0, 0, 1], [10, 0, 0, 2], 1000, 80);
        b.add_source(h0, Box::new(CbrSource::new(key, 1500, 1000.0)));
        let report = b.build().run();
        let totals = &report.source_totals[0];
        assert_eq!(totals.generated, 5_000);
        assert_eq!(totals.delivered, 5_000);
        assert_eq!(totals.dropped_capacity, 0);
        assert_eq!(totals.dropped_policy, 0);
        let mean = report.throughput_bps[0].mean();
        assert!((mean - 12e6).abs() / 12e6 < 0.01, "mean {mean}");
    }

    #[test]
    fn cross_host_delivery_over_the_fabric() {
        let mut b = FleetBuilder::new(small_cfg(3, 2));
        let h0 = b.add_host(DpConfig::default());
        let h1 = b.add_host(DpConfig::default());
        b.add_pod(h0, ip([10, 0, 0, 1]));
        b.add_pod(h1, ip([10, 1, 0, 1]));
        let key = FlowKey::tcp([10, 0, 0, 1], [10, 1, 0, 1], 1000, 80);
        b.add_source(h0, Box::new(CbrSource::new(key, 1500, 100.0)));
        let report = b.build().run();
        // One tick of fabric latency, one more for the receipt: the
        // tail of the stream may be in flight at the end of the run.
        let delivered = report.source_totals[0].delivered;
        assert!((298..=300).contains(&delivered), "delivered = {delivered}");
        assert!(report.switch_stats[0].packets >= 299);
        assert!(report.switch_stats[1].packets >= 298);
    }

    #[test]
    fn migration_moves_delivery_to_the_new_host() {
        let mut b = FleetBuilder::new(small_cfg(4, 2));
        let h0 = b.add_host(DpConfig::default());
        let h1 = b.add_host(DpConfig::default());
        let h2 = b.add_host(DpConfig::default());
        b.add_pod(h0, ip([10, 0, 0, 1])); // client
        b.add_pod(h1, ip([10, 1, 0, 1])); // server, will migrate to h2
        let key = FlowKey::tcp([10, 0, 0, 1], [10, 1, 0, 1], 1000, 80);
        b.add_source(h0, Box::new(CbrSource::new(key, 1500, 100.0)));
        b.schedule_migration(SimTime::from_secs(2), ip([10, 1, 0, 1]), h2);
        let report = b.build().run();
        let totals = &report.source_totals[0];
        // Nothing is lost across the migration epoch: in-flight packets
        // tunnel through the old host's uplink.
        assert!(totals.generated - totals.delivered <= 3, "{totals:?}");
        assert_eq!(totals.dropped_policy, 0);
        // The new host's switch did real delivery work after the move.
        assert!(report.switch_stats[2].packets >= 190, "h2 took over");
        let _ = h1;
    }

    #[test]
    fn shards_inherit_the_bounded_pipeline_and_report_upcall_drops() {
        use pi_attack::{AttackSchedule, AttackSpec, CovertSequence};
        use pi_datapath::{PipelineMode, UpcallPipelineConfig};
        use pi_traffic::ChurnSource;

        let run = |quota: Option<u32>, workers: usize| {
            let dp = DpConfig {
                flow_limit: 64,
                pipeline: PipelineMode::Bounded(UpcallPipelineConfig {
                    queue_capacity: 16,
                    handler_cycles_per_step: 200_000,
                    port_quota_per_step: quota,
                }),
                ..DpConfig::default()
            };
            let mut b = FleetBuilder::new(small_cfg(4, workers));
            let h0 = b.add_host(dp.clone());
            let h1 = b.add_host(dp);
            b.add_pod(h0, ip([10, 0, 0, 2])); // victim service pod
            b.add_pod(h1, ip([10, 1, 0, 2])); // attacker client pod
                                              // Victim churn: fresh connections from host 1 over the
                                              // fabric, starting after the flood has filled host 0's
                                              // flow limit (so its flows keep upcalling).
            b.add_source(
                h1,
                Box::new(
                    ChurnSource::new(ip([10, 0, 10, 0]), ip([10, 0, 0, 2]), 80, 64, 2_000.0)
                        .starting_at(SimTime::from_secs(1))
                        .named("victim"),
                ),
            );
            // Attacker upcall flood injected directly at host 0.
            let spec = AttackSpec::masks_512(pi_cms::PolicyDialect::Kubernetes);
            let schedule = AttackSchedule::new(
                CovertSequence::new(spec.build_target(ip([10, 1, 0, 2]))),
                10e6, // ~19.5 kpps of 64-B frames
                SimTime::ZERO,
            )
            .upcall_flood();
            b.add_source(h0, Box::new(schedule));
            b.build().run()
        };

        let unfair = run(None, 2);
        // The flood saturates host 0's handlers: the victim's fresh
        // flows tail-drop at the upcall queue and the blast radius
        // names the host.
        assert!(
            unfair.source_totals[0].dropped_upcall > 0,
            "victim upcall drops: {:?}",
            unfair.source_totals[0]
        );
        // Host 1 only upcalls to set up the churn stream's uplink
        // megaflow — its slow path is otherwise idle.
        assert!(unfair.upcall_stats[1].enqueued < 10);
        assert_eq!(unfair.upcall_stats[1].queue_drops, 0);
        let blast = unfair.blast_radius(SimTime::from_secs(1), &[0], 0.5, 1e9);
        assert_eq!(blast.upcall_drops.len(), 1);
        assert_eq!(blast.upcall_drops[0].0, 0, "host 0 carries the drops");

        // The per-port fair-share quota restores the victim.
        let fair = run(Some(4), 2);
        assert_eq!(
            fair.source_totals[0].dropped_upcall, 0,
            "quota must restore the victim: {:?}",
            fair.source_totals[0]
        );

        // Determinism across worker counts holds for the pipeline too.
        let single = run(None, 1);
        assert_eq!(single.source_totals, unfair.source_totals);
        assert_eq!(single.upcall_stats, unfair.upcall_stats);
    }

    #[test]
    fn shard_local_controllers_detect_and_mitigate_deterministically() {
        use pi_attack::{AttackSchedule, AttackSpec, CovertSequence};
        use pi_datapath::{PipelineMode, UpcallPipelineConfig};
        use pi_detect::DefenseController;
        use pi_traffic::ChurnSource;

        let run = |workers: usize| {
            let dp = DpConfig {
                flow_limit: 64,
                pipeline: PipelineMode::Bounded(UpcallPipelineConfig {
                    queue_capacity: 16,
                    // ~12 upcalls/step: the controller's default quota
                    // (8) must leave handler headroom for the victim —
                    // a quota above the whole budget protects nobody.
                    handler_cycles_per_step: 400_000,
                    port_quota_per_step: None,
                }),
                ..DpConfig::default()
            };
            let mut b = FleetBuilder::new(small_cfg(5, workers));
            let h0 = b.add_host(dp.clone());
            let h1 = b.add_host(dp);
            b.add_pod(h0, ip([10, 0, 0, 2])); // victim service pod
            b.add_pod(h1, ip([10, 1, 0, 2])); // attacker client pod
            b.add_source(
                h1,
                Box::new(
                    ChurnSource::new(ip([10, 0, 10, 0]), ip([10, 0, 0, 2]), 80, 64, 2_000.0)
                        .starting_at(SimTime::from_secs(2))
                        .named("victim"),
                ),
            );
            // Flood at host 0 from t = 1 s (1 s of benign warm-up for
            // the host-0 controller's baselines).
            let spec = AttackSpec::masks_512(pi_cms::PolicyDialect::Kubernetes);
            b.add_source(
                h0,
                Box::new(
                    AttackSchedule::new(
                        CovertSequence::new(spec.build_target(ip([10, 1, 0, 2]))),
                        10e6,
                        SimTime::from_secs(1),
                    )
                    .upcall_flood(),
                ),
            );
            // Controllers on both hosts; host 1 sees nothing.
            b.attach_defense(h0, DefenseController::with_defaults());
            b.attach_defense(h1, DefenseController::with_defaults());
            b.build().run()
        };

        let report = run(2);
        let d0 = report.defense[0].as_ref().expect("host 0 defended");
        let d1 = report.defense[1].as_ref().expect("host 1 defended");
        assert!(d0.activations >= 1, "host 0 must mitigate: {d0:?}");
        assert_eq!(d1.activations, 0, "host 1 stays quiet");
        assert!(d1.detections.is_empty());
        // The blast radius names host 0's detection and mitigation.
        let blast = report.blast_radius(SimTime::from_secs(1), &[0], 0.5, 1e9);
        assert_eq!(blast.detections.len(), 1);
        assert_eq!(blast.detections[0].0, 0);
        assert!(blast.detections[0].1 >= SimTime::from_secs(1), "post-onset");
        assert_eq!(blast.mitigations.len(), 1);
        assert!(blast.mitigations[0].1 >= blast.detections[0].1);
        // The mitigated victim outperforms the unfair static baseline
        // of `shards_inherit_the_bounded_pipeline...`: most of its
        // post-mitigation connections complete.
        let victim = &report.source_totals[0];
        assert!(
            victim.delivered > victim.dropped_upcall,
            "quota restores the victim: {victim:?}"
        );
        // Determinism: controllers are shard-local, so worker count
        // changes nothing — totals, defense timelines, attribution.
        let single = run(1);
        assert_eq!(single.source_totals, report.source_totals);
        assert_eq!(single.defense, report.defense);
        assert_eq!(single.attribution, report.attribution);
    }

    #[test]
    fn fault_injection_preserves_worker_count_determinism_on_every_backend() {
        use pi_backend::BackendKind;
        use pi_cms::{
            Cidr, ControlPlaneProgram, IngressRule, NetworkPolicy, PolicyCompiler, Protocol,
        };
        use pi_fault::{ChannelFaultConfig, FaultSchedule, ReliabilityConfig};

        let run = |kind: BackendKind, workers: usize| {
            let dp = DpConfig {
                backend: kind,
                ..DpConfig::default()
            };
            let mut b = FleetBuilder::new(small_cfg(5, workers));
            let h0 = b.add_host(dp.clone());
            let h1 = b.add_host(dp);
            let victim = ip([10, 0, 0, 2]);
            b.add_pod(h0, victim);
            b.add_pod(h1, ip([10, 1, 0, 2]));
            // The victim whitelists its one legitimate client; the
            // prober below is outside the whitelist.
            let policy = NetworkPolicy {
                name: "victim-peers".into(),
                ingress: vec![IngressRule {
                    from: vec![Cidr::host([10, 1, 0, 2])],
                    ports: vec![(Protocol::Tcp, Some(80))],
                }],
            };
            let mut program = ControlPlaneProgram::default();
            program.install_acl(
                SimTime::from_millis(200),
                victim,
                PolicyCompiler.compile_k8s(&policy),
            );
            // At-least-once delivery over a hostile channel (loss,
            // duplication, jittered delays → reordering), plus a
            // mid-run crash that wipes the installed ACL.
            b.attach_reliable_control_plane(h0, program, ReliabilityConfig::default());
            b.attach_faults(
                h0,
                FaultSchedule::new()
                    .crash(SimTime::from_secs(2), SimTime::from_millis(100))
                    .channel(ChannelFaultConfig {
                        drop_p: 0.25,
                        dup_p: 0.25,
                        delay: SimTime::from_millis(2),
                        jitter: SimTime::from_millis(7),
                        seed: 0xDE7E12,
                    }),
            );
            let key = FlowKey::tcp([10, 1, 0, 2], [10, 0, 0, 2], 1000, 80);
            b.add_source(h1, Box::new(CbrSource::new(key, 400, 2_000.0)));
            let probe = FlowKey::tcp([10, 9, 0, 1], [10, 0, 0, 2], 40_000, 80);
            b.add_source(h1, Box::new(CbrSource::new(probe, 64, 500.0)));
            b.build().run()
        };

        for kind in [
            BackendKind::OvsCache,
            BackendKind::ExactHash,
            BackendKind::LpmTier,
            BackendKind::NicOffload,
        ] {
            let one = run(kind, 1);
            let many = run(kind, 2);
            // Totals, switch counters and the fault/recovery report
            // are bit-identical across worker counts: the fault plan,
            // channel RNG and reliable-delivery state are all
            // shard-local.
            assert_eq!(one.source_totals, many.source_totals, "{kind:?}");
            assert_eq!(one.switch_stats, many.switch_stats, "{kind:?}");
            assert_eq!(one.faults, many.faults, "{kind:?}");
            let f = one.faults[0].as_ref().expect("host 0 has faults");
            assert_eq!(f.crashes, 1, "{kind:?}");
            assert!(f.fault_events() >= 1, "{kind:?}: {f:?}");
            assert!(f.acls_lost >= 1, "{kind:?}: {f:?}");
            assert!(f.channel.applied >= 1, "{kind:?}: {f:?}");
            assert!(one.faults[1].is_none(), "host 1 runs fault-free");
            // The blast radius names host 0's faults.
            let blast = one.blast_radius(SimTime::from_secs(2), &[0], 0.5, 1e9);
            assert_eq!(blast.fault_events.len(), 1, "{kind:?}");
            assert_eq!(blast.fault_events[0].0, 0, "{kind:?}");
        }
    }

    /// A scenario exercising every event source at once: cross-host
    /// traffic, a delayed attack, a migration, a defended host, a
    /// crash + lossy control channel behind a reliable control plane —
    /// and one fully idle host the event engine should skip.
    fn rich_fleet(event: bool, workers: usize) -> FleetReport {
        use pi_attack::{AttackSchedule, AttackSpec, CovertSequence};
        use pi_cms::{
            Cidr, ControlPlaneProgram, IngressRule, NetworkPolicy, PolicyCompiler, Protocol,
        };
        use pi_detect::DefenseController;
        use pi_fault::{ChannelFaultConfig, FaultSchedule, ReliabilityConfig};

        let mut cfg = small_cfg(4, workers);
        cfg.sim.event_driven = event;
        let mut b = FleetBuilder::new(cfg);
        let h0 = b.add_host(DpConfig::default());
        let h1 = b.add_host(DpConfig::default());
        let h2 = b.add_host(DpConfig::default());
        let victim = ip([10, 0, 0, 2]);
        b.add_pod(h0, victim);
        b.add_pod(h1, ip([10, 1, 0, 2]));
        b.add_pod(h2, ip([10, 2, 0, 2])); // pod attached, host otherwise idle
        let policy = NetworkPolicy {
            name: "victim-peers".into(),
            ingress: vec![IngressRule {
                from: vec![Cidr::host([10, 1, 0, 2])],
                ports: vec![(Protocol::Tcp, Some(80))],
            }],
        };
        let mut program = ControlPlaneProgram::default();
        program.install_acl(
            SimTime::from_millis(200),
            victim,
            PolicyCompiler.compile_k8s(&policy),
        );
        b.attach_reliable_control_plane(h0, program, ReliabilityConfig::default());
        b.attach_faults(
            h0,
            FaultSchedule::new()
                .crash(SimTime::from_secs(2), SimTime::from_millis(100))
                .stall(SimTime::from_millis(2_500), SimTime::from_millis(5))
                .channel(ChannelFaultConfig {
                    drop_p: 0.25,
                    dup_p: 0.25,
                    delay: SimTime::from_millis(2),
                    jitter: SimTime::from_millis(7),
                    seed: 0xDE7E12,
                }),
        );
        b.attach_defense(h0, DefenseController::with_defaults());
        // Legitimate client, outside-whitelist prober, delayed attack.
        let key = FlowKey::tcp([10, 1, 0, 2], [10, 0, 0, 2], 1000, 80);
        b.add_source(h1, Box::new(CbrSource::new(key, 400, 2_000.0)));
        let probe = FlowKey::tcp([10, 9, 0, 1], [10, 0, 0, 2], 40_000, 80);
        b.add_source(h1, Box::new(CbrSource::new(probe, 64, 500.0)));
        let spec = AttackSpec::masks_512(pi_cms::PolicyDialect::Kubernetes);
        b.add_source(
            h0,
            Box::new(
                AttackSchedule::new(
                    CovertSequence::new(spec.build_target(ip([10, 1, 0, 2]))),
                    5e6,
                    SimTime::from_secs(1),
                )
                .upcall_flood(),
            ),
        );
        // The victim pod migrates mid-run to the idle host.
        b.schedule_migration(SimTime::from_secs(3), victim, h2);
        b.build().run()
    }

    fn assert_reports_equal(a: &FleetReport, b: &FleetReport, label: &str) {
        assert_eq!(a.source_totals, b.source_totals, "{label}: totals");
        assert_eq!(a.switch_stats, b.switch_stats, "{label}: switch stats");
        assert_eq!(a.upcall_stats, b.upcall_stats, "{label}: upcall stats");
        assert_eq!(a.faults, b.faults, "{label}: fault reports");
        assert_eq!(a.defense, b.defense, "{label}: defense reports");
        assert_eq!(a.attribution, b.attribution, "{label}: attribution");
        let series = |r: &FleetReport| {
            let mut all = Vec::new();
            for group in [
                &r.throughput_bps,
                &r.offered_bps,
                &r.masks,
                &r.megaflows,
                &r.cpu_util,
                &r.handler_cps,
                &r.policy_updates,
            ] {
                for s in group.iter() {
                    all.push(s.iter().collect::<Vec<_>>());
                }
            }
            all
        };
        assert_eq!(series(a), series(b), "{label}: timelines");
    }

    #[test]
    fn event_engine_matches_the_stepped_reference_bit_for_bit() {
        let ev = rich_fleet(true, 2);
        let st = rich_fleet(false, 2);
        assert_reports_equal(&ev, &st, "event vs stepped");
        // Both engines consume the same events; only the idle-tick
        // accounting differs.
        assert_eq!(ev.engine.events_processed, st.engine.events_processed);
        assert_eq!(st.engine.shard_ticks_skipped, 0, "stepped skips nothing");
        assert!(
            ev.engine.shard_ticks_skipped > 0,
            "the idle host must be skipped: {:?}",
            ev.engine
        );
    }

    #[test]
    fn worker_matrix_is_bit_identical_on_every_backend_with_faults() {
        use pi_backend::BackendKind;
        use pi_cms::{
            Cidr, ControlPlaneProgram, IngressRule, NetworkPolicy, PolicyCompiler, Protocol,
        };
        use pi_fault::{ChannelFaultConfig, FaultSchedule, ReliabilityConfig};

        let run = |kind: BackendKind, workers: usize| {
            let dp = DpConfig {
                backend: kind,
                ..DpConfig::default()
            };
            let mut b = FleetBuilder::new(small_cfg(3, workers));
            let h0 = b.add_host(dp.clone());
            let h1 = b.add_host(dp.clone());
            let h2 = b.add_host(dp.clone());
            let h3 = b.add_host(dp);
            let victim = ip([10, 0, 0, 2]);
            b.add_pod(h0, victim);
            b.add_pod(h1, ip([10, 1, 0, 2]));
            b.add_pod(h2, ip([10, 2, 0, 2]));
            b.add_pod(h3, ip([10, 3, 0, 2])); // idle host
            let policy = NetworkPolicy {
                name: "victim-peers".into(),
                ingress: vec![IngressRule {
                    from: vec![Cidr::host([10, 1, 0, 2])],
                    ports: vec![(Protocol::Tcp, Some(80))],
                }],
            };
            let mut program = ControlPlaneProgram::default();
            program.install_acl(
                SimTime::from_millis(200),
                victim,
                PolicyCompiler.compile_k8s(&policy),
            );
            b.attach_reliable_control_plane(h0, program, ReliabilityConfig::default());
            b.attach_faults(
                h0,
                FaultSchedule::new()
                    .crash(SimTime::from_secs(1), SimTime::from_millis(50))
                    .channel(ChannelFaultConfig {
                        drop_p: 0.25,
                        dup_p: 0.25,
                        delay: SimTime::from_millis(2),
                        jitter: SimTime::from_millis(7),
                        seed: 0xBEEF,
                    }),
            );
            let key = FlowKey::tcp([10, 1, 0, 2], [10, 0, 0, 2], 1000, 80);
            b.add_source(h1, Box::new(CbrSource::new(key, 400, 2_000.0)));
            let probe = FlowKey::tcp([10, 9, 0, 1], [10, 0, 0, 2], 40_000, 80);
            b.add_source(h2, Box::new(CbrSource::new(probe, 64, 500.0)));
            b.build().run()
        };

        for kind in [
            BackendKind::OvsCache,
            BackendKind::ExactHash,
            BackendKind::LpmTier,
            BackendKind::NicOffload,
        ] {
            let one = run(kind, 1);
            for workers in [2usize, 4] {
                let many = run(kind, workers);
                let label = format!("{kind:?} @ {workers} workers");
                assert_reports_equal(&one, &many, &label);
                // The engine accounting itself is worker-invariant.
                assert_eq!(one.engine, many.engine, "{label}: engine stats");
            }
            assert!(
                one.engine.shard_ticks_skipped > 0,
                "{kind:?}: idle host must be skipped"
            );
        }
    }

    #[test]
    fn null_message_exchange_survives_a_silent_shard() {
        // Two workers, and the second worker's shard receives and
        // sends no traffic at all: the lookahead protocol must keep
        // advancing on pure null messages (a deadlock hangs the test).
        let mut b = FleetBuilder::new(small_cfg(3, 2));
        let h0 = b.add_host(DpConfig::default());
        let h1 = b.add_host(DpConfig::default());
        b.add_pod(h0, ip([10, 0, 0, 1]));
        b.add_pod(h1, ip([10, 1, 0, 1])); // attached, never addressed
        let key = FlowKey::tcp([10, 0, 0, 9], [10, 0, 0, 1], 1000, 80);
        b.add_source(h0, Box::new(CbrSource::new(key, 1500, 1000.0)));
        let report = b.build().run();
        assert_eq!(report.source_totals[0].delivered, 3_000);
        assert!(
            report.engine.shard_ticks_skipped > 0,
            "the silent shard must be skipped: {:?}",
            report.engine
        );
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let run = |workers: usize| {
            let mut b = FleetBuilder::new(small_cfg(3, workers));
            for h in 0..3 {
                let host = b.add_host(DpConfig::default());
                b.add_pod(host, ip([10, h as u8, 0, 1]));
            }
            for h in 0..3u8 {
                let key = FlowKey::tcp([10, h, 0, 1], [10, (h + 1) % 3, 0, 1], 1000 + h as u16, 80);
                b.add_source(h as usize, Box::new(CbrSource::new(key, 800, 500.0)));
            }
            b.build().run()
        };
        let a = run(1);
        let b = run(3);
        assert_eq!(a.source_totals, b.source_totals);
        for (sa, sb) in a.throughput_bps.iter().zip(&b.throughput_bps) {
            assert_eq!(sa.iter().collect::<Vec<_>>(), sb.iter().collect::<Vec<_>>());
        }
    }
}
