//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name (`<layer>.<function>`), start and end, the
//! span open on the same thread when it began (its parent) and the
//! request it served (the cell or job). Spans stay in memory and are
//! written out once, when the run ends. A disabled tracer only runs the
//! closure, so untraced runs pay one branch per call.

use crate::measure::json_num;
use hpa_core::obs::json::escape_into;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

struct Span {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    request: String,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name` serving `request`.
    pub fn span<T>(&self, name: &'static str, request: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        // Ids only need to be unique; they publish no other data.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        OPEN.with(|open| open.borrow_mut().pop());
        let span = Span {
            id,
            parent,
            name,
            request: request.to_string(),
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        };
        self.spans.lock().expect("span list").push(span);
        out
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("span list").len()
    }

    /// Self time per layer in milliseconds: each span's duration minus
    /// the durations of its child spans, summed by the `<layer>` prefix
    /// of its name.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span list");
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut by_layer = BTreeMap::new();
        for s in spans.iter() {
            let own =
                (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *by_layer.entry(layer).or_insert(0.0) += own as f64 / 1e6;
        }
        by_layer
    }

    /// Every span as a JSON array, in completion order.
    pub fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("span list");
        let mut out = String::with_capacity(spans.len() * 96 + 2);
        out.push('[');
        for (k, s) in spans.iter().enumerate() {
            if k > 0 {
                out.push_str(",\n");
            }
            out.push_str("{\"id\":");
            json_num(&mut out, s.id as f64);
            out.push_str(",\"parent\":");
            match s.parent {
                Some(p) => json_num(&mut out, p as f64),
                None => out.push_str("null"),
            }
            out.push_str(",\"name\":\"");
            escape_into(&mut out, s.name);
            out.push_str("\",\"request\":\"");
            escape_into(&mut out, &s.request);
            out.push_str("\",\"start_ns\":");
            json_num(&mut out, s.start_ns as f64);
            out.push_str(",\"end_ns\":");
            json_num(&mut out, s.end_ns as f64);
            out.push('}');
        }
        out.push_str("]\n");
        out
    }
}

/// Host cost of recording one span, in nanoseconds: the median over a
/// few batches of empty spans on a private tracer.
pub fn span_cost_ns() -> f64 {
    const BATCH: u32 = 20_000;
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let probe = Tracer::new(true);
            let t0 = Instant::now();
            for _ in 0..BATCH {
                probe.span("trace.null", "probe", || std::hint::black_box(0u64));
            }
            t0.elapsed().as_nanos() as f64 / f64::from(BATCH)
        })
        .collect();
    crate::measure::median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_nest() {
        let t = Tracer::new(true);
        t.span("outer.op", "r1", || {
            t.span("inner.work", "r1", || std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let by_layer = t.self_ms_by_layer();
        assert!(by_layer["inner"] >= 5.0);
        assert!(by_layer["outer"] < by_layer["inner"]);
        let json = t.to_json();
        assert!(json.contains("\"parent\":1"), "{json}");
        let off = Tracer::new(false);
        assert_eq!(off.span("x.y", "r", || 7), 7);
        assert_eq!(off.span_count(), 0);
    }
}
