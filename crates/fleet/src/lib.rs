//! # pi-fleet — tenant placement and fleet-scale experiments
//!
//! The paper demonstrates policy injection on a two-node testbed; the
//! real threat model is a multi-tenant cloud where one attacker degrades
//! many co-located tenants across a fleet of hosts. The engine that
//! runs both lives in [`pi_sim`] (one engine under the testbed and the
//! fleet): every host is a **shard** owning its
//! [`pi_datapath::VSwitch`], traffic sources and per-tenant accounting;
//! shards are stepped by a pool of **worker threads**; and cross-host
//! packets travel through bounded channels under a bounded-lookahead
//! synchronizer (the conservative-time style of parallel simulators
//! like rustasim).
//!
//! Determinism is a hard guarantee, not an accident: all cross-shard
//! traffic is merged in sending-shard order at epoch boundaries, so a
//! run's results are **bit-identical for any worker count** — the
//! regression test pins a 4-host run at 1 vs 4 workers byte for byte.
//!
//! What this crate adds on top:
//!
//! * [`ClusterBuilder`] — tenant placement (round-robin, bin-packed,
//!   adversarial co-location) on the [`pi_cms`] tenant/pod model, with
//!   policy injection through real CMS admission.
//! * [`scenario`] — the `fleet_colocation`, `fleet_migration` and
//!   `fleet_sparse` experiments; `benchmark/` times the first and the
//!   last (`colo_*`, `sparse_idle`).
//!
//! [`FleetBuilder`], [`FleetSim`], [`FleetConfig`], [`FleetReport`] and
//! [`BlastRadius`] are re-exports of the `pi_sim` types — the names
//! fleet callers, `benchmark/` among them, import from here.
//! `pi_sim::Simulation` and `pi_sim::SimReport` are the same
//! `FleetSim` and `FleetReport`.

pub mod placement;
pub mod scenario;

pub use pi_sim::{
    BlastRadius, EngineProfile, EngineStats, FleetBuilder, FleetConfig, FleetReport, FleetSim,
    RouteTable, TraceConfig, TraceEvent, TraceEventKind, TraceReport, FLUSH_LOG_CAP,
};
pub use placement::ClusterBuilder;
pub use scenario::{
    fleet_colocation, fleet_migration, fleet_sparse, ColocationHandles, ColocationParams,
    MigrationHandles, MigrationParams, SparseHandles, SparseParams,
};
