//! # pi-trace — deterministic structured tracing
//!
//! A fixed-capacity, per-shard ring buffer of typed simulation events,
//! stamped with **sim time** (never wall clock) and a **causality id**
//! that links a control-plane policy update to the cache flushes,
//! rebuild upcalls, detections, and mitigations it triggers. The paper's
//! core claim is causal — a few malicious policy updates cascade into
//! dataplane collapse — and this crate turns every scenario run into an
//! inspectable timeline of that cascade.
//!
//! Design constraints, in order:
//!
//! 1. **Guaranteed no-op when disabled.** A disabled [`Tracer`] is a
//!    `None` — every emission site is one branch on an `Option`, no
//!    locks taken, no stats snapshotted, nothing allocated.
//! 2. **Deterministic when enabled.** Events are stamped with sim-time
//!    nanoseconds and a per-host sequence number; the merged
//!    [`TraceReport`] orders them by `(at_ns, host, seq)`, which is a
//!    total order independent of worker count — the fleet's
//!    bit-identical guarantee extends to traces.
//! 3. **Allocation-free steady state.** The ring is preallocated at
//!    65 536 events per host and overwrites its oldest events when
//!    full (`dropped` counts the overwritten ones); every
//!    [`TraceEvent`] is `Copy`.
//!
//! Two exporters ship with the crate: [`chrome_trace_json`] renders the
//! Chrome trace-event format (loadable in Perfetto / `chrome://tracing`)
//! and [`prometheus_snapshot`] renders a Prometheus-style text snapshot
//! built on [`pi_metrics::Summary`]. [`validate_json`] is a
//! dependency-free JSON validity checker used by CI to prove the
//! Chrome export parses.

pub mod cell;
pub mod event;
pub mod export;
pub mod json;
pub mod report;

pub use cell::{TraceCell, Tracer};
pub use event::{CauseId, TraceConfig, TraceEvent, TraceEventKind};
pub use export::{chrome_trace_json, prometheus_snapshot};
pub use json::validate_json;
pub use report::TraceReport;
