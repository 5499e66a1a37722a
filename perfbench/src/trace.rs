//! In-memory span recording for the traced run.
//!
//! A [`Tracer`] records one span (name, start, end, parent, request id)
//! around each public call it is asked to time. Spans nest through an
//! explicit open-span stack, so a span's *self-time* is its duration
//! minus the durations of its direct children. A disabled tracer runs
//! the same closures without recording anything; comparing the two
//! walls gives the tracer's own overhead.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name` for request `request`.
    pub fn span<T>(&self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let parent = self.open.borrow().last().copied().unwrap_or(ROOT);
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                request,
            });
            u32::try_from(spans.len() - 1).expect("span count fits u32")
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[index as usize].end_ns = end;
        out
    }

    /// Removes and returns every recorded span.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

/// Self-time (nanoseconds) per span name, plus the summed duration of
/// root spans (the part of the wall that some span covers).
pub fn self_times(spans: &[Span]) -> (BTreeMap<&'static str, u64>, u64) {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != ROOT {
            child_ns[span.parent as usize] += span.nanos();
        }
    }
    let mut by_name = BTreeMap::new();
    let mut covered = 0;
    for (span, children) in spans.iter().zip(child_ns) {
        *by_name.entry(span.name).or_insert(0) += span.nanos().saturating_sub(children);
        if span.parent == ROOT {
            covered += span.nanos();
        }
    }
    (by_name, covered)
}

/// Writes `spans` as JSON lines: `{"name","start_ns","end_ns","parent","request"}`
/// (`parent` is `null` for roots; indices refer to line order).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        let parent = if span.parent == ROOT {
            "null".to_string()
        } else {
            span.parent.to_string()
        };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
            span.name, span.start_ns, span.end_ns, parent, span.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            Span {
                name: "a",
                start_ns: 0,
                end_ns: 100,
                parent: ROOT,
                request: 1,
            },
            Span {
                name: "b",
                start_ns: 10,
                end_ns: 60,
                parent: 0,
                request: 1,
            },
            Span {
                name: "c",
                start_ns: 20,
                end_ns: 40,
                parent: 1,
                request: 1,
            },
            Span {
                name: "a",
                start_ns: 200,
                end_ns: 210,
                parent: ROOT,
                request: 2,
            },
        ];
        let (by_name, covered) = self_times(&spans);
        assert_eq!(by_name["a"], 50 + 10);
        assert_eq!(by_name["b"], 30);
        assert_eq!(by_name["c"], 20);
        assert_eq!(covered, 110);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", 0, || 7), 7);
        assert!(tracer.take().is_empty());
        let tracer = Tracer::new(true);
        tracer.span("outer", 3, || tracer.span("inner", 3, || ()));
        let spans = tracer.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
    }
}
