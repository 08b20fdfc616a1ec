//! Harness-side spans: one per call from the benchmark into a layer of the
//! program (a sim run, an analysis stage, a probe). Kept in memory, written
//! as JSONL at exit. No span lives inside `crates/` or `src/`.

use std::time::Instant;

use ps2::tracefile::JsonValue;

use crate::obj;

pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Span recorder. Disabled (every `--trace 0` run) it only times the call, so
/// end-to-end numbers are measured with tracing off.
pub struct Spans {
    workload: &'static str,
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    pub fn new(workload: &'static str, enabled: bool) -> Spans {
        Spans {
            workload,
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Run `f` under a span called `name`; returns its result and its
    /// duration in seconds. `f` gets the recorder back so stages can nest.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        if !self.enabled {
            let t = Instant::now();
            let out = f(self);
            return (out, t.elapsed().as_secs_f64());
        }
        let id = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    /// Self time of span `id`: its duration minus the part its direct
    /// children cover.
    fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// One JSON object per line: `name, start_ns, end_ns, self_ns, parent,
    /// workload`. `parent` is the line index of the enclosing span or null.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let row = obj([
                ("name", JsonValue::Str(s.name.clone())),
                ("start_ns", JsonValue::Num(s.start_ns as f64)),
                ("end_ns", JsonValue::Num(s.end_ns as f64)),
                ("self_ns", JsonValue::Num(self.self_ns(id) as f64)),
                (
                    "parent",
                    s.parent
                        .map_or(JsonValue::Null, |p| JsonValue::Num(p as f64)),
                ),
                ("workload", JsonValue::Str(self.workload.into())),
            ]);
            out.push_str(&row.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_self_time() {
        let mut sp = Spans::new("w", true);
        sp.scope("outer", |sp| {
            sp.scope("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(sp.spans.len(), 2);
        assert_eq!(sp.spans[1].parent, Some(0));
        let inner = sp.spans[1].end_ns - sp.spans[1].start_ns;
        let outer = sp.spans[0].end_ns - sp.spans[0].start_ns;
        assert_eq!(sp.self_ns(0), outer - inner);
        assert_eq!(sp.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut sp = Spans::new("w", false);
        let ((), secs) = sp.scope("x", |_| ());
        assert!(secs >= 0.0);
        assert!(sp.spans.is_empty());
    }
}
