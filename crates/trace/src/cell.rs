//! The per-host recording state: [`TraceCell`] (the preallocated ring)
//! and [`Tracer`] (the cheap, cloneable handle threaded through the
//! dataplane, control plane, and defense layers).

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::event::{CauseId, TraceConfig, TraceEvent, TraceEventKind};

/// One host's recording state: a preallocated overwrite-oldest ring of
/// [`TraceEvent`]s plus the causality bookkeeping.
///
/// `active_cause` is set while a policy update is being applied (so the
/// update's own events carry its id); `rebuild_cause` latches the id of
/// the most recent cache flush and is **never cleared** — window
/// aggregates and detections are attributed to the latest flush, which
/// under a flap attack is exactly the update driving the storm.
#[derive(Debug)]
pub struct TraceCell {
    host: u32,
    seq: u32,
    next_update_seq: u32,
    now_ns: u64,
    active_cause: CauseId,
    rebuild_cause: CauseId,
    ring: Vec<TraceEvent>,
    start: usize,
    /// Events overwritten after the ring filled.
    pub dropped: u64,
}

impl TraceCell {
    /// A fresh cell for `host` with room for 65 536 events.
    pub fn new(host: u32) -> Self {
        TraceCell {
            host,
            seq: 0,
            next_update_seq: 0,
            now_ns: 0,
            active_cause: CauseId::NONE,
            rebuild_cause: CauseId::NONE,
            ring: Vec::with_capacity(TraceConfig::CAPACITY),
            start: 0,
            dropped: 0,
        }
    }

    // audit: hotpath
    fn push(&mut self, at_ns: u64, cause: CauseId, kind: TraceEventKind) {
        let ev = TraceEvent {
            at_ns,
            host: self.host,
            seq: self.seq,
            cause,
            kind,
        };
        self.seq = self.seq.wrapping_add(1);
        if self.ring.len() < TraceConfig::CAPACITY {
            self.ring.push(ev);
        } else {
            self.ring[self.start] = ev;
            self.start = (self.start + 1) % TraceConfig::CAPACITY;
            self.dropped += 1;
        }
    }

    /// The recorded events in emission order (oldest first).
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.ring.len());
        out.extend_from_slice(&self.ring[self.start..]);
        out.extend_from_slice(&self.ring[..self.start]);
        out
    }
}

/// The handle every instrumented component holds. Internally an
/// `Option<Arc<Mutex<TraceCell>>>`:
///
/// - **Disabled** (`None`, the default): every method is a single
///   branch and returns immediately — no lock, no snapshot, no
///   allocation. This is the bench-proven zero-overhead guarantee.
/// - **Enabled**: clones share one per-host cell (the `NodeCell`, its
///   backend, its defense controller, and its reliable control plane
///   all record into the same ring, preserving one total per-host
///   order). The mutex is uncontended — a host's components run on one
///   worker thread — and `Send + Sync` lets the fleet move shards
///   across workers.
#[derive(Debug, Clone, Default)]
pub struct Tracer(Option<Arc<Mutex<TraceCell>>>);

impl Tracer {
    /// A disabled tracer (the default): all emissions are no-ops.
    pub fn disabled() -> Self {
        Tracer(None)
    }

    /// A tracer for `host` under `cfg` — disabled unless `cfg.enabled`.
    pub fn for_host(cfg: TraceConfig, host: u32) -> Self {
        if cfg.enabled {
            Tracer(Some(Arc::new(Mutex::new(TraceCell::new(host)))))
        } else {
            Tracer(None)
        }
    }

    /// Whether emissions record anything. Emission sites with a
    /// non-trivial payload to assemble (stats snapshots, diffs) must
    /// gate on this so disabled runs skip the assembly entirely.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The locked cell of an enabled tracer. Poison-tolerant: every
    /// update made under the lock is a run of plain stores that leaves
    /// the ring valid at each step (at worst one `seq` is skipped), so a
    /// thread that panicked while holding the guard does not cost the
    /// host its later events or its drain.
    #[inline]
    fn cell(&self) -> Option<MutexGuard<'_, TraceCell>> {
        let cell = self.0.as_ref()?;
        Some(cell.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Records `kind` at `at_ns`, attributed to the latched rebuild
    /// cause (the most recent cache flush), or to the in-progress
    /// update if one is applying.
    #[inline]
    pub fn emit(&self, at_ns: u64, kind: TraceEventKind) {
        if let Some(mut cell) = self.cell() {
            let cause = if cell.active_cause.is_some() {
                cell.active_cause
            } else {
                cell.rebuild_cause
            };
            cell.push(at_ns, cause, kind);
        }
    }

    /// Records `kind` with no causal attribution (crashes, reconcile
    /// passes — events that *start* chains rather than belong to one).
    #[inline]
    pub fn emit_uncaused(&self, at_ns: u64, kind: TraceEventKind) {
        if let Some(mut cell) = self.cell() {
            cell.push(at_ns, CauseId::NONE, kind);
        }
    }

    /// Allocates a fresh causality id and makes it the active cause:
    /// events emitted until [`Tracer::end_update`] carry it. Returns
    /// [`CauseId::NONE`] when disabled.
    #[inline]
    pub fn begin_update(&self) -> CauseId {
        match self.cell() {
            None => CauseId::NONE,
            Some(mut cell) => {
                let id = CauseId::new(cell.host, cell.next_update_seq);
                cell.next_update_seq += 1;
                cell.active_cause = id;
                id
            }
        }
    }

    /// Ends the active update scope begun by [`Tracer::begin_update`].
    #[inline]
    pub fn end_update(&self) {
        if let Some(mut cell) = self.cell() {
            cell.active_cause = CauseId::NONE;
        }
    }

    /// Stamps the current sim time so components without a clock of
    /// their own (the dataplane backends' costed update entry points)
    /// can record correctly-timed events. The simulator calls this once
    /// per executed tick, gated on [`Tracer::is_enabled`].
    #[inline]
    pub fn set_now(&self, at_ns: u64) {
        if let Some(mut cell) = self.cell() {
            cell.now_ns = at_ns;
        }
    }

    /// Records one costed control-plane update at the stamped time
    /// (see [`Tracer::set_now`]), under the active cause; when the
    /// update's invalidation flushed state, also records the
    /// [`TraceEventKind::CacheFlush`] and latches the rebuild cause.
    /// This is the backends' one-call emission point.
    #[inline]
    pub fn emit_policy_update(
        &self,
        op: u8,
        cycles: u64,
        flushed: u32,
        scoped: bool,
        applied: bool,
    ) {
        if let Some(mut cell) = self.cell() {
            let at_ns = cell.now_ns;
            let cause = cell.active_cause;
            cell.push(
                at_ns,
                cause,
                TraceEventKind::PolicyUpdate {
                    op,
                    cycles,
                    flushed,
                    scoped,
                    applied,
                },
            );
            if flushed > 0 {
                if cause.is_some() {
                    cell.rebuild_cause = cause;
                }
                cell.push(at_ns, cause, TraceEventKind::CacheFlush { flushed, scoped });
            }
        }
    }

    /// Snapshots the cell: events in emission order plus the overwrite
    /// count. Empty when disabled.
    pub fn take(&self) -> (Vec<TraceEvent>, u64) {
        match self.cell() {
            None => (Vec::new(), 0),
            Some(cell) => (cell.events(), cell.dropped),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.emit(0, TraceEventKind::Reconcile { pushes: 1 });
        assert_eq!(t.begin_update(), CauseId::NONE);
        t.emit_policy_update(0, 0, 3, true, true);
        t.end_update();
        assert_eq!(t.take().0.len(), 0);
    }

    #[test]
    fn update_scope_attributes_and_flush_latches() {
        let t = Tracer::for_host(TraceConfig::enabled(), 2);
        t.set_now(1_000_000);
        let id = t.begin_update();
        assert_eq!(id, CauseId::new(2, 0));
        t.emit_policy_update(0, 10, 5, false, true);
        t.end_update();
        // Post-update windows inherit the latched rebuild cause...
        t.emit(
            2_000_000,
            TraceEventKind::MegaflowChurn {
                megaflows: 1,
                masks: 1,
            },
        );
        // ...while uncaused events do not.
        t.emit_uncaused(
            2_000_000,
            TraceEventKind::Crash {
                acls_lost: 0,
                flows_lost: 0,
                upcalls_lost: 0,
            },
        );
        let (events, dropped) = t.take();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].cause, id);
        assert_eq!(events[1].cause, id);
        assert_eq!(events[2].cause, id, "window inherits rebuild cause");
        assert_eq!(events[3].cause, CauseId::NONE);
        // Sequence numbers order same-tick events.
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn policy_update_emission_combines_update_and_flush() {
        let t = Tracer::for_host(TraceConfig::enabled(), 1);
        t.set_now(5_000_000);
        let id = t.begin_update();
        t.emit_policy_update(0, 99, 7, true, true);
        t.end_update();
        let (events, _) = t.take();
        assert_eq!(events.len(), 2);
        assert!(matches!(
            events[0].kind,
            TraceEventKind::PolicyUpdate { flushed: 7, .. }
        ));
        assert!(matches!(events[1].kind, TraceEventKind::CacheFlush { .. }));
        assert!(events.iter().all(|e| e.at_ns == 5_000_000 && e.cause == id));
        // The flush latched the rebuild cause for later windows.
        t.emit(
            6_000_000,
            TraceEventKind::MegaflowChurn {
                megaflows: 0,
                masks: 0,
            },
        );
        assert_eq!(t.take().0[2].cause, id);
    }

    #[test]
    fn a_poisoned_ring_still_records_and_drains() {
        let t = Tracer::for_host(TraceConfig::enabled(), 3);
        t.emit_uncaused(1, TraceEventKind::Reconcile { pushes: 1 });
        let held = t.clone();
        let panicked = std::thread::spawn(move || {
            let _guard = held.0.as_ref().map(|c| c.lock());
            panic!("poison the ring's mutex");
        })
        .join();
        assert!(panicked.is_err());
        assert!(t.0.as_ref().is_some_and(|c| c.is_poisoned()));

        t.set_now(2);
        let id = t.begin_update();
        t.emit_policy_update(0, 0, 4, false, true);
        t.end_update();
        let (events, dropped) = t.take();
        // The reconcile, then the update and its flush.
        assert_eq!((events.len(), dropped), (3, 0));
        assert_eq!((events[1].cause, events[2].cause), (id, id));
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let t = Tracer::for_host(TraceConfig::enabled(), 0);
        let cap = TraceConfig::CAPACITY as u64;
        for i in 0..cap + 6 {
            t.emit_uncaused(i, TraceEventKind::Reconcile { pushes: i as u32 });
        }
        let (events, dropped) = t.take();
        assert_eq!(dropped, 6);
        assert_eq!(events.len(), TraceConfig::CAPACITY);
        assert_eq!(events[0].at_ns, 6);
        assert_eq!(events[TraceConfig::CAPACITY - 1].at_ns, cap + 5);
    }
}
