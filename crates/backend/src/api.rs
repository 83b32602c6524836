//! The [`DataplaneBackend`] trait: one contract over every dataplane
//! architecture the matrix compares.
//!
//! Thirteen methods, each with a caller in `pi_sim::NodeCell`, the
//! engine's shards and report, or the `pi_detect` tap and controller:
//! two accessors and a trace hook, **one** policy entry point
//! ([`DataplaneBackend::apply_update`], charged or free), the datapath
//! (batch, handler step, maintenance, next background event), **one**
//! telemetry read ([`DataplaneBackend::snapshot`]), attribution, the
//! crash/reconciliation pair, and **one** defense actuator
//! ([`DataplaneBackend::actuate`]). The routing/ACL/quarantine
//! bookkeeping underneath is [`pi_datapath::PodTable`] in every
//! implementation, so policy semantics cannot differ between them.
//! Everything is object-safe: sinks are `&mut dyn FnMut`, and the
//! simulators hold a `Box<dyn DataplaneBackend>`.

use pi_classifier::{Action, FlowTable, PolicyUpdate};
use pi_core::{FlowKey, SimTime};
use pi_datapath::emc::EmcStats;
use pi_datapath::{
    BackendKind, CostModel, DpConfig, PathTaken, PolicyUpdateOutcome, ProcessOutcome,
    ResolvedUpcall, RestartOutcome, SwitchStats, UpcallStats, VSwitch, Work,
};
use pi_mitigation::MaskAttribution;
use pi_trace::Tracer;

/// Maximum packets hashed per [`DataplaneBackend::process_batch`] phase
/// (OVS's `NETDEV_MAX_BURST`; the other backends adopt the same batching
/// granularity so tick loops need no per-backend array sizes).
pub const BATCH_SIZE: usize = VSwitch::BATCH_SIZE;

/// One read of a backend's telemetry ([`DataplaneBackend::snapshot`]):
/// the cumulative counters in the OVS vocabulary plus the three
/// occupancy gauges. Backends without a given structure report zeros
/// for its counters, so the `pi_detect` tap runs unchanged everywhere.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataplaneStats {
    /// Aggregate packet, cycle and control-plane counters.
    pub switch: SwitchStats,
    /// Exact-match/first-level cache counters (zeros when the
    /// architecture has no such structure).
    pub emc: EmcStats,
    /// Deferred-pipeline counters (zeros for inline-only backends;
    /// `quarantine_drops` is meaningful everywhere).
    pub upcall: UpcallStats,
    /// Distinct wildcard masks in the flow cache — the paper's Fig. 3
    /// observable. Architectures without a wildcard cache report 0:
    /// *there is no mask space to explode*.
    pub masks: usize,
    /// Cached flow entries (megaflows, exact entries, offloaded flows —
    /// whatever the architecture stores per flow).
    pub megaflows: usize,
    /// Pending deferred upcalls (0 for inline-only backends).
    pub upcall_backlog: usize,
}

/// One defense actuation ([`DataplaneBackend::actuate`]): what the
/// `pi_detect` controller performs — and later reverts — on a live
/// backend, and what its reports list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefenseAction {
    /// Set the bounded pipeline's per-port fair-share quota.
    SetPortQuota(Option<u32>),
    /// Toggle staged subtable lookup.
    SetStagedLookup(bool),
    /// Quarantine a destination: its cached state is evicted and, until
    /// released, its slow-path service refused.
    Quarantine(u32),
    /// Lift a quarantine.
    ReleaseQuarantine(u32),
}

/// One dataplane architecture: classification, policy hooks, telemetry
/// and cycle charging behind a uniform, object-safe contract.
///
/// ## Contract
///
/// * **Verdict soundness** — for any packet, the verdict must equal what
///   the destination pod's ACL (ground truth: linear classification)
///   decides; backends differ in *cost* and *cached state*, never in
///   policy semantics.
/// * **Mechanical costing** — every outcome carries the [`Work`] it
///   counted, and its `cycles` are the shared [`CostModel::cycles_of`]
///   that work; no backend may invent a flat "attack effect" constant.
/// * **Determinism** — identical call sequences produce identical
///   results; any internal randomness must come from the seeded
///   `DpConfig` (the fleet replays nodes across worker counts and pins
///   bit-identical reports).
/// * **Telemetry** — [`DataplaneStats`] reuses the OVS vocabulary
///   ([`SwitchStats`], [`EmcStats`], [`UpcallStats`]) on every backend.
///
/// `crates/backend/tests/conformance.rs` runs the shared half of this
/// contract against every [`BackendKind`].
pub trait DataplaneBackend: std::fmt::Debug + Send {
    /// The live configuration (`config().backend` names the
    /// architecture; kept in sync by [`DataplaneBackend::actuate`], as
    /// [`VSwitch`] does).
    fn config(&self) -> &DpConfig;

    /// The cycle cost model in force.
    fn cost_model(&self) -> &CostModel;

    /// Attaches a trace handle: charged policy updates record
    /// themselves and their cache flushes through it
    /// ([`pi_trace::TraceEventKind::PolicyUpdate`] /
    /// [`pi_trace::TraceEventKind::CacheFlush`]). The default drops the
    /// handle — a backend without flushable state may stay untraced —
    /// and a disabled tracer makes every emission a single no-op branch.
    fn set_tracer(&mut self, _tracer: Tracer) {}

    // --- Policy -----------------------------------------------------

    /// Applies one control-plane update. `charged` is how it arrived: a
    /// run-time update is priced — the outcome's `cycles` (fixed
    /// handling plus whatever invalidation/recompilation the
    /// architecture performs) are also added to the backend's
    /// `control_cycles` — while build-time topology assembly, before
    /// the simulated clock, is free (`cycles == 0`, nothing traced).
    /// `applied` is false for a re-attach (the vport moves, the
    /// installed ACL stays) and for an ACL install/removal at an
    /// unattached IP (refused — but a charged refusal still pays the
    /// fixed handling).
    fn apply_update(&mut self, update: PolicyUpdate, charged: bool) -> PolicyUpdateOutcome;

    /// Build-time convenience: attaches a pod, free. Returns true for a
    /// fresh attach.
    fn attach_pod(&mut self, ip: u32, vport: u32) -> bool {
        self.apply_update(PolicyUpdate::AttachPod { ip, vport }, false)
            .applied
    }

    /// Build-time convenience: installs (or replaces) the ingress ACL
    /// protecting the pod at `ip`, free. Returns false if no pod is
    /// attached there.
    fn install_acl(&mut self, ip: u32, table: FlowTable) -> bool {
        self.apply_update(PolicyUpdate::InstallAcl { ip, table }, false)
            .applied
    }

    /// Build-time convenience: removes the ACL at `ip` (the pod reverts
    /// to allow-all), free.
    fn remove_acl(&mut self, ip: u32) -> bool {
        self.apply_update(PolicyUpdate::RemoveAcl { ip }, false)
            .applied
    }

    // --- The datapath -----------------------------------------------

    /// Processes a run of pre-parsed flow keys in arrival order. `sink`
    /// receives each packet's index and outcome and returns whether to
    /// continue; returning `false` stops the run (the simulator's
    /// per-tick cycle budget), leaving later packets untouched. Returns
    /// the number of packets processed.
    fn process_batch(
        &mut self,
        keys: &[FlowKey],
        now: SimTime,
        sink: &mut dyn FnMut(usize, ProcessOutcome) -> bool,
    ) -> usize;

    /// Runs one handler step of the backend's deferred slow-path
    /// pipeline, if it has one. Backends that resolve every packet
    /// inline return 0 and never call `sink`.
    fn drain_upcalls(&mut self, now: SimTime, sink: &mut dyn FnMut(ResolvedUpcall)) -> usize;

    /// Runs the backend's periodic maintenance if due (idle eviction,
    /// table aging). Call once per simulated tick.
    fn revalidate(&mut self, now: SimTime);

    /// The next instant at which this backend performs observable
    /// background work on its own (a deferred-pipeline handler step or
    /// a maintenance sweep over live state), assuming no new packets or
    /// policy updates arrive. `Some(now)` means "busy right now";
    /// `None` means fully quiescent — `drain_upcalls` and `revalidate`
    /// calls strictly before the returned time are provable no-ops, so
    /// the event-driven engines may skip those ticks entirely. The
    /// conservative default never skips.
    fn next_background_event(&self, now: SimTime) -> Option<SimTime> {
        Some(now)
    }

    // --- Telemetry --------------------------------------------------

    /// Every counter and gauge at once (the tap, the traced tick, the
    /// shard's samples and the report each want several).
    fn snapshot(&self) -> DataplaneStats;

    /// Per-destination attribution of cached state (the offender
    ///-detection input). Backends without per-flow caches return an
    /// empty vector.
    fn attribution(&self) -> Vec<MaskAttribution>;

    // --- Crash/restart (the `pi_fault` surface) ---------------------

    /// Crashes and restarts the backend process: cached per-flow state,
    /// deferred work, quarantine markings and every installed ACL are
    /// lost (ports revert to allow-all); port attachments and lifetime
    /// statistics survive. The restart itself (one [`Work::restarts`])
    /// is charged by the caller.
    fn crash_restart(&mut self) -> RestartOutcome;

    /// Destination IPs with an installed (default-deny) ACL, ascending
    /// — what the reconciliation loop diffs against the CMS's desired
    /// state.
    fn installed_acl_ips(&self) -> Vec<u32>;

    // --- Defense ----------------------------------------------------

    /// Performs one defense actuation. Returns whether it took effect:
    /// false when the architecture lacks the knob (a quota without a
    /// bounded deferred pipeline, staged lookup without a tuple-space
    /// walk) or when there was no quarantine to release — the state is
    /// then unchanged. Every backend quarantines.
    fn actuate(&mut self, action: DefenseAction) -> bool;
}

/// Convenience: processes a single pre-parsed key through a
/// boxed/borrowed backend (examples and tests; simulators use
/// [`DataplaneBackend::process_batch`]). A backend that reports no
/// outcome for the key — a breach of `process_batch`'s one-outcome-per-key
/// contract, which the conformance suite pins — reads as a packet dropped
/// with no verdict rendered and nothing charged.
pub fn process_one(
    backend: &mut dyn DataplaneBackend,
    key: &FlowKey,
    now: SimTime,
) -> ProcessOutcome {
    let work = Work::default();
    let mut out = ProcessOutcome {
        verdict: Action::Controller,
        output: None,
        path: PathTaken::UpcallDropped,
        work,
        cycles: backend.cost_model().cycles_of(&work),
    };
    backend.process_batch(std::slice::from_ref(key), now, &mut |_, o| {
        out = o;
        true
    });
    out
}

/// Resolves `config.backend` into a concrete pipeline. This is the
/// scenario-setup dispatch point: the returned object is driven through
/// flat `dyn` calls from then on — no per-packet branching on the kind.
pub fn build_backend(config: DpConfig, cost: CostModel) -> Box<dyn DataplaneBackend> {
    match config.backend {
        BackendKind::OvsCache => Box::new(VSwitch::with_cost_model(config, cost)),
        BackendKind::ExactHash | BackendKind::NicOffload => {
            Box::new(crate::ExactTable::new(config, cost))
        }
        BackendKind::LpmTier => Box::new(crate::LpmTier::new(config, cost)),
    }
}
