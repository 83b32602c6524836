//! # policy-injection — reproduction of *Policy Injection: A Cloud
//! Dataplane DoS Attack* (Csikor et al., SIGCOMM 2018)
//!
//! A tenant-side algorithmic-complexity attack on the cloud dataplane:
//! innocuous-looking ACLs, injected through the official CMS policy API
//! and fed with a 1–2 Mb/s covert packet stream, inflate the number of
//! distinct wildcard *masks* in Open vSwitch's megaflow cache. Tuple
//! Space Search probes one hash table per mask, **sequentially**, so a
//! few thousand masks turn every cache lookup into a linear scan and
//! the shared datapath core saturates — denying service to co-located
//! tenants.
//!
//! This crate is the facade over the workspace:
//!
//! | crate | role |
//! |---|---|
//! | [`pi_core`] | flow keys, wildcard masks, field model |
//! | [`pi_packet`] | Ethernet/IPv4/TCP/UDP wire formats |
//! | [`pi_classifier`] | flow tables, linear + tuple-space-search classifiers, prefix tries |
//! | [`pi_datapath`] | the OVS-like switch: EMC, megaflow cache, slow path, revalidator |
//! | [`pi_cms`] | tenants/pods + Kubernetes/OpenStack/Calico policy dialects |
//! | [`pi_traffic`] | victim and background workload generators |
//! | [`pi_attack`] | malicious ACLs, mask prediction, covert sequences, pacing |
//! | [`pi_mitigation`] | mask budgets, OVS heuristics, mask attribution, per-tenant quotas |
//! | [`pi_detect`] | telemetry taps, streaming detectors, closed-loop adaptive defense |
//! | [`pi_fault`] | deterministic fault injection, lossy control channels, at-least-once delivery + reconciliation |
//! | [`pi_metrics`] | time series, CSV, ASCII plots |
//! | [`pi_trace`] | deterministic structured tracing: causality ids, per-host event rings, Chrome/Prometheus exporters |
//! | [`pi_sim`] | the simulator: the one sharded event-driven engine, tenant placement, and all seven experiments (testbed and fleet) as recipes over shared parts |
//!
//! ## Quick start
//!
//! ```
//! use policy_injection::prelude::*;
//!
//! // The paper's §2 numbers, from the analytical model:
//! let spec = AttackSpec::masks_512(PolicyDialect::Kubernetes);
//! assert_eq!(spec.predicted_masks(), 512);
//! assert_eq!(AttackSpec::masks_8192().predicted_masks(), 8192);
//!
//! // And measured against the actual datapath:
//! let (baseline, attacked) = measure_capacity(
//!     DpConfig::default(),
//!     1_200_000_000,
//!     &spec,
//!     200,
//! );
//! assert_eq!(attacked.masks, 512);
//! assert!(attacked.capacity_pps < baseline.capacity_pps / 20.0);
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! `results` binary regenerating every figure and table of the paper.

pub use pi_attack;
pub use pi_classifier;
pub use pi_cms;
pub use pi_core;
pub use pi_datapath;
pub use pi_detect;
pub use pi_fault;
pub use pi_metrics;
pub use pi_mitigation;
pub use pi_packet;
pub use pi_sim;
pub use pi_trace;
pub use pi_traffic;

/// The most common imports in one place.
pub mod prelude {
    pub use pi_attack::{
        predicted_mask_count, AttackSchedule, AttackSpec, CovertSequence, MaliciousAcl,
    };
    pub use pi_backend::{
        build_backend, process_one, DataplaneBackend, DataplaneStats, DefenseAction,
    };
    pub use pi_classifier::{Action, FlowTable, LinearClassifier, TupleSpaceSearch};
    pub use pi_cms::{
        CalicoPolicy, Cidr, Cloud, ControlPlane, ControlPlaneProgram, NetworkPolicy,
        PolicyCompiler, PolicyDialect, PolicyUpdate, SecurityGroup,
    };
    pub use pi_core::{Field, FlowKey, FlowMask, MaskedKey, Port, SimTime};
    pub use pi_datapath::{
        BackendKind, CostModel, DpConfig, PathTaken, PipelineMode, UpcallPipelineConfig,
        UpcallStats, VSwitch,
    };
    pub use pi_detect::{
        ControllerConfig, DefenseController, DefenseReport, DefenseState, DetectionEvent,
        DetectorConfig, TelemetryTap,
    };
    pub use pi_fault::{ChannelFaultConfig, FaultSchedule, NodeFaultReport, ReliableControlPlane};
    pub use pi_metrics::{ascii_plot, CsvTable, Summary, TimeSeries};
    pub use pi_mitigation::{upcall_fair_share_config, MaskBudget};
    pub use pi_sim::{
        adaptive_defense_scenario, crash_recovery_scenario, fig3_scenario, fleet_colocation,
        fleet_sparse, measure_backend_capacity, measure_capacity, policy_churn_scenario,
        upcall_saturation_scenario, AdaptiveDefenseParams, BlastRadius, BuildError,
        CapacityWorkload, ClusterBuilder, ColocationParams, CrashRecoveryAttack,
        CrashRecoveryParams, DefenseMode, Fig3Params, FleetBuilder, FleetReport, Handles,
        PolicyChurnParams, SimConfig, SimReport, SparseParams, UpcallSaturationParams,
    };
    pub use pi_trace::{
        chrome_trace_json, prometheus_snapshot, validate_json, CauseId, TraceConfig, TraceEvent,
        TraceEventKind, TraceReport, Tracer,
    };
    pub use pi_traffic::{ChurnSource, FanSource, IperfSource, PoissonFlowSource, TrafficSource};
}
