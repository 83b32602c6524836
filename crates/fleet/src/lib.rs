//! A re-export shim: `pi_fleet`'s placement and scenarios now live in
//! [`pi_sim`], and these are the eight names `benchmark/` — which no
//! other PR may edit — still imports from here. The `[dependencies]`
//! table in `Cargo.toml` is frozen byte for byte, because dropping a
//! line that `benchmark/Cargo.lock` records makes the next benchmark
//! run rewrite that tracked file. The benchmark-only PR of ROADMAP item
//! 2A switches the imports to `pi_sim` and deletes this crate.

pub use pi_sim::{
    fleet_colocation, fleet_sparse, ColocationParams, EngineProfile, FleetReport, FleetSim,
    SparseParams, TraceConfig,
};
