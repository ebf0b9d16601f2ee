//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the crates is instrumented.
//! A span's self time is its duration minus the time its direct children
//! cover (children never overlap, as the recorder is single-threaded).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Busy and self time of every span name, summed over the run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub busy_ns: u64,
    pub self_ns: u64,
    pub calls: u64,
}

/// Records spans in memory and writes them out once, at the end.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Tags every span opened from now on with operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; it becomes the parent of spans opened before it is
    /// closed.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Duration of span `id` in nanoseconds.
    pub fn duration_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        s.end_ns.saturating_sub(s.start_ns)
    }

    /// Busy time, self time and call count per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let busy = s.end_ns.saturating_sub(s.start_ns);
            let t = out.entry(s.name).or_default();
            t.busy_ns += busy;
            t.self_ns += busy.saturating_sub(child_ns[i]);
            t.calls += 1;
        }
        out
    }

    /// Writes every span as one JSON line: name, start and end (ns from
    /// the recorder's creation), parent index and operation id.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let outer = t.enter("outer");
        for _ in 0..2 {
            t.time("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        }
        t.exit(outer);
        let totals = t.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!(inner.calls, 2);
        assert_eq!(outer.self_ns + inner.busy_ns, outer.busy_ns);
        assert!(inner.busy_ns >= 4_000_000);
    }
}
