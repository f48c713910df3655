//! In-memory spans recorded by the benchmark around its calls into each
//! layer: name, start, end and parent, written out when the run ends.
//! A layer is the part of a span name before the first `.`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span. `f` must not unwind (callers catch panics inside it).
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start: self.now(),
                end: 0.0,
                parent: self.open.borrow().last().copied(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let r = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end = self.now();
        r
    }

    /// Records `dur` spent in `name` as a child of the innermost open
    /// span, ending now — for time measured by a wrapper rather than
    /// around one call (the coprocessor's summed `issue` time).
    pub fn record_child(&self, name: &'static str, dur: Duration) {
        let end = self.now();
        let parent = self.open.borrow().last().copied();
        self.spans.borrow_mut().push(Span {
            name,
            start: end - dur.as_secs_f64(),
            end,
            parent,
        });
    }

    /// Self time per layer, seconds: each span's duration minus the
    /// part its children cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut child = vec![0.0; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in spans.iter().zip(&child) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0.0) += (s.end - s.start - c).max(0.0);
        }
        out
    }

    /// Durations (seconds) of every span named `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// The spans as Chrome trace-event JSON (one complete event per
    /// span; `args.id`/`args.parent` keep the tree).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"traceEvents\":[");
        for (i, sp) in self.spans.borrow().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = sp.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                s,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                sp.name,
                sp.start * 1e6,
                (sp.end - sp.start) * 1e6
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

/// Runs `f` in a span when tracing, bare otherwise.
pub fn span<R>(tr: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => t.span(name, f),
        None => f(),
    }
}
