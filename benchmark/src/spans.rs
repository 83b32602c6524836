//! Harness-side spans: the one clock the benchmark reads.
//!
//! Library code may not read a wall clock (the `pi_audit` determinism
//! rule), so every host-time figure is taken here, from outside, around
//! a call into one layer. A span is `(id, parent, name, start, end)`;
//! spans nest by call order, stay in memory, and are written as a
//! Chrome trace-event document when a traced child ends. A span's self
//! time is its duration minus what its children cover.

// audit: allow-file(determinism) -- the harness times the library from outside; nothing here feeds a simulation
use std::time::Instant;

use crate::json::Value;

/// One recorded span. Times are nanoseconds since the recorder was
/// created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Boundary name: `setup`, `run`, `report`, `trace.export`, or
    /// `layer.<metric>`.
    pub name: String,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin (0 while open).
    pub end_ns: u64,
}

/// In-memory span recorder for one process (one workload).
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose spans all carry `workload`.
    pub fn new(workload: &str) -> Spans {
        Spans {
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Seconds since the recorder was created.
    pub fn elapsed_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name` (a child of whichever span
    /// is open) and returns its result with the span's duration in
    /// seconds. The clock is read immediately around `f`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> (R, f64) {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        self.spans[id].start_ns = self.now_ns();
        let result = f(self);
        let end = self.now_ns();
        self.spans[id].end_ns = end;
        self.open.pop();
        (result, (end - self.spans[id].start_ns) as f64 / 1e9)
    }

    /// The spans recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id`: its duration minus its direct children's.
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    /// Chrome trace-event document (`"ph": "X"` complete events, `ts`
    /// and `dur` in microseconds), loadable in Perfetto next to the
    /// library's own `chrome_trace_json` export.
    pub fn to_chrome_json(&self) -> Value {
        let events = self
            .spans
            .iter()
            .map(|s| {
                let mut args = Value::obj();
                args.set("id", Value::Num(s.id as f64));
                args.set(
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                );
                args.set("workload", Value::str(&self.workload));
                args.set("self_ns", Value::Num(self.self_ns(s.id) as f64));
                let mut ev = Value::obj();
                ev.set("name", Value::str(&s.name));
                ev.set("ph", Value::str("X"));
                ev.set("ts", Value::Num(s.start_ns as f64 / 1e3));
                ev.set("dur", Value::Num((s.end_ns - s.start_ns) as f64 / 1e3));
                ev.set("pid", Value::Num(0.0));
                ev.set("tid", Value::Num(0.0));
                ev.set("args", args);
                ev
            })
            .collect();
        let mut doc = Value::obj();
        doc.set("traceEvents", Value::Arr(events));
        doc.set("displayTimeUnit", Value::str("ms"));
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_by_call_order_and_self_time_excludes_children() {
        let mut spans = Spans::new("w");
        let ((), outer_s) = spans.time("outer", |s| {
            s.time("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            s.time("b", |_| ());
        });
        spans.time("sibling", |_| ());
        let recorded = spans.spans();
        let names: Vec<&str> = recorded.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["outer", "a", "b", "sibling"]);
        assert_eq!(recorded[0].parent, None);
        assert_eq!(recorded[1].parent, Some(0));
        assert_eq!(recorded[2].parent, Some(0));
        assert_eq!(recorded[3].parent, None);
        assert!(outer_s >= 0.002);
        let outer = recorded[0].end_ns - recorded[0].start_ns;
        let a = recorded[1].end_ns - recorded[1].start_ns;
        assert!(spans.self_ns(0) <= outer - a);
        assert!(recorded[1].start_ns >= recorded[0].start_ns);
        assert!(recorded[1].end_ns <= recorded[0].end_ns);
    }

    #[test]
    fn chrome_export_carries_ids_parents_and_workload() {
        let mut spans = Spans::new("colo_walk");
        spans.time("run", |s| s.time("report", |_| ()));
        let doc = spans.to_chrome_json();
        let events = doc.get("traceEvents").unwrap().items();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].path(&["args", "parent"]).and_then(Value::as_f64),
            Some(0.0)
        );
        assert_eq!(events[0].path(&["args", "parent"]), Some(&Value::Null));
        assert_eq!(
            events[0]
                .path(&["args", "workload"])
                .and_then(Value::as_str),
            Some("colo_walk")
        );
        assert_eq!(crate::json::parse(&doc.to_pretty()).unwrap(), doc);
    }
}
