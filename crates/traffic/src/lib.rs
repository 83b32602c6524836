//! # pi-traffic — workload generation
//!
//! Deterministic, seeded packet sources for the simulator:
//!
//! * [`IperfSource`] — the paper's victim: a bulk TCP transfer with an
//!   AIMD congestion response, so sustained loss collapses its rate the
//!   way a real iperf session would (Fig. 3's victim line).
//! * [`PoissonFlowSource`] — background pod-to-pod chatter: flow
//!   arrivals are Poisson, each flow sends a bounded burst. Keeps the
//!   caches honest in scenarios.
//! * [`ChurnSource`] — connection churn: every packet is a brand-new
//!   flow, the workload that keeps a switch's slow path busy (the
//!   victim of the handler-saturation scenarios).
//! * [`FanSource`] — a fixed population of concurrent flows served
//!   round-robin at a constant aggregate rate (the victim of the
//!   policy-churn scenarios: every flush forces a rebuild per flow).
//!   A one-key fan is a constant-rate stream of one flow.
//!
//! Every source implements [`TrafficSource`]: the simulator asks for the
//! packets of each tick interval and feeds delivery/drop counts back.

pub mod churn;
pub mod fan;
pub mod iperf;
pub mod poisson;
pub mod source;

pub use churn::ChurnSource;
pub use fan::FanSource;
pub use iperf::IperfSource;
pub use poisson::PoissonFlowSource;
pub use source::{GenPacket, TrafficSource};
