//! [`TraceReport`]: the merged, canonically ordered trace of one run.

use crate::cell::Tracer;
use crate::event::{TraceConfig, TraceEvent};

/// The canonical trace of one run: every host's ring merged into one
/// list ordered by `(at_ns, host, seq)`.
///
/// That key is a total order over events (each host's `seq` is
/// monotone), and every component of it is derived from sim state
/// only — so the merged trace is **bit-identical across worker
/// counts**, the same guarantee the fleet report carries. Per-worker
/// engine-profiling data (null-message exchanges, wake-heap churn) is
/// deliberately *not* part of this report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceReport {
    /// Merged events in canonical order.
    pub events: Vec<TraceEvent>,
    /// Total events overwritten across all rings (0 = complete trace).
    pub dropped: u64,
    /// The per-host ring capacity the run used.
    pub capacity: usize,
}

impl TraceReport {
    /// Merges the given tracers' rings into canonical order. Returns an
    /// empty report when tracing was disabled: a disabled tracer holds
    /// no ring, so the config itself decides nothing here.
    pub fn collect(_cfg: TraceConfig, tracers: &[Tracer]) -> Self {
        let mut events = Vec::new();
        let mut dropped = 0;
        for t in tracers {
            let (evs, d) = t.take();
            events.extend(evs);
            dropped += d;
        }
        events.sort_by_key(|e| (e.at_ns, e.host, e.seq));
        TraceReport {
            events,
            dropped,
            capacity: TraceConfig::CAPACITY,
        }
    }

    /// Whether any events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEventKind;

    #[test]
    fn collect_merges_hosts_into_canonical_order() {
        let cfg = TraceConfig::enabled();
        let a = Tracer::for_host(cfg, 0);
        let b = Tracer::for_host(cfg, 1);
        b.emit_uncaused(1_000_000, TraceEventKind::Reconcile { pushes: 1 });
        a.emit_uncaused(2_000_000, TraceEventKind::Reconcile { pushes: 2 });
        a.emit_uncaused(1_000_000, TraceEventKind::Reconcile { pushes: 0 });
        let report = TraceReport::collect(cfg, &[a, b]);
        assert_eq!(report.events.len(), 3);
        // (at_ns, host, seq): host 0's tick-1 event precedes host 1's,
        // despite being emitted later in wall order.
        assert_eq!(
            report
                .events
                .iter()
                .map(|e| (e.at_ns, e.host))
                .collect::<Vec<_>>(),
            vec![(1_000_000, 0), (1_000_000, 1), (2_000_000, 0)]
        );
    }
}
