//! # pi-sim — the discrete-time cloud dataplane simulator
//!
//! Reproduces the paper's testbed (Fig. 1) in simulation: server nodes
//! running an OVS-like [`pi_datapath::VSwitch`], pods attached to vports,
//! a fabric link between nodes, and traffic sources feeding the whole
//! thing tick by tick.
//!
//! The one modelling rule: **throughput is never scripted**. Each switch
//! has a CPU cycle budget per tick; every packet costs what the datapath
//! says it costs (hash probes × cycle prices); packets the budget cannot
//! cover queue up and eventually drop. When the covert stream inflates
//! the subtable walk, the victim's throughput collapses because the
//! arithmetic says so.
//!
//! This is the one simulator crate — engine, placement and every
//! experiment. [`engine`] is the sharded event loop (builder, workers,
//! the serial tick-stepped reference), [`node`] one host's switch and
//! queue, [`report`] what a run produces, and [`placement`] the
//! [`ClusterBuilder`] that keeps a [`pi_cms::Cloud`] and the engine in
//! step (tenant placement, policy injection through real CMS
//! admission). [`scenario`] holds all seven experiments — five testbed
//! builds of one or two hosts, two CMS-placed fleets — each a short
//! recipe over one set of shared *parts*: a part is a private function
//! or constant for a block at least two recipes spell (the pod
//! addresses, `allow_cluster_to(port)`, the whitelisted clients, the
//! upcall flood, the churn victim, the bounded slow path, CMS
//! admission, the victim iperf pair, the fanned-out covert streams); a
//! block only one recipe needs stays inline in it. Every recipe returns
//! `(simulation, Handles)` — [`Handles`] finds a source by the label it
//! carries in the report and names the hosts the two tenants landed on.
//!
//! Worker-count determinism is a hard guarantee: cross-shard traffic is
//! merged in sending-shard order at tick boundaries, so a run is
//! bit-identical for any worker count (`tests/determinism.rs`). The
//! engine's types carry their fleet names ([`FleetBuilder`],
//! [`FleetSim`], [`FleetReport`]); [`Simulation`] and [`SimReport`] are
//! the same two types under the names the testbed's callers —
//! `benchmark/` among them — import.

pub mod config;
pub mod engine;
pub mod node;
pub mod placement;
pub mod report;
pub mod scenario;
mod shard;

pub use config::SimConfig;
pub use engine::{BuildError, FleetBuilder, FleetSim, FleetSim as Simulation};
pub use node::{NodeCell, NodePacket, Routing};
pub use pi_trace::{TraceConfig, TraceEvent, TraceEventKind, TraceReport, Tracer};
pub use placement::ClusterBuilder;
pub use report::{
    BlastRadius, EngineProfile, EngineStats, FleetReport, FleetReport as SimReport, SourceTotals,
};
pub use scenario::{
    adaptive_defense_scenario, crash_recovery_scenario, fig3_scenario, fleet_colocation,
    fleet_sparse, measure_backend_capacity, measure_capacity, policy_churn_scenario,
    upcall_saturation_scenario, AdaptiveDefenseParams, CapacityReport, CapacityWorkload,
    ColocationParams, CrashRecoveryAttack, CrashRecoveryParams, DefenseMode, Fig3Params, Handles,
    PolicyChurnParams, SparseParams, UpcallSaturationParams,
};
