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
//! There is one engine, and it lives here: [`engine`] is the sharded
//! event loop (builder, workers, the serial tick-stepped reference),
//! [`node`] one host's switch and queue, [`report`] what a run
//! produces. [`scenario`] packages the paper's experiments as one- and
//! two-host builds on it; `pi_fleet` adds tenant placement and the
//! fleet-scale experiments. The engine's types carry their fleet names
//! ([`FleetBuilder`], [`FleetSim`], [`FleetReport`], re-exported by
//! `pi_fleet`); [`Simulation`] and [`SimReport`] are the same two types
//! under the names the testbed's callers — `benchmark/` among them —
//! import from this crate.

pub mod config;
pub mod engine;
pub mod node;
pub mod report;
pub mod routes;
pub mod scenario;
mod shard;

pub use config::{FleetConfig, SimConfig};
pub use engine::{FleetBuilder, FleetSim, FleetSim as Simulation};
pub use node::{NodeCell, NodePacket, Routing};
pub use pi_trace::{TraceConfig, TraceEvent, TraceEventKind, TraceReport, Tracer};
pub use report::{
    BlastRadius, EngineProfile, EngineStats, FleetReport, FleetReport as SimReport, SourceTotals,
    FLUSH_LOG_CAP,
};
pub use routes::RouteTable;
pub use scenario::{
    adaptive_defense_scenario, crash_recovery_scenario, fig3_scenario, measure_backend_capacity,
    measure_capacity, policy_churn_scenario, upcall_saturation_scenario, AdaptiveDefenseHandles,
    AdaptiveDefenseParams, CapacityReport, CapacityWorkload, CrashRecoveryAttack,
    CrashRecoveryHandles, CrashRecoveryParams, DefenseMode, Fig3Params, PolicyChurnHandles,
    PolicyChurnParams, UpcallSaturationHandles, UpcallSaturationParams,
};
