//! In-memory spans recorded around the benchmark's calls into each
//! layer's public functions, written out when the run ends.
//!
//! A span has a name, a start and an end, the span that caused it, and
//! the request id shared by every span of one operation. A layer's self
//! time is its span's duration minus the part of that interval its
//! child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One client thread's span log; span ids are indices into it.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    req: u64,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }

    /// Spans begun from now on belong to request `req`.
    pub fn set_request(&mut self, req: u64) {
        self.req = req;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req: self.req,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (and any span still open inside it).
    pub fn end(&mut self, id: u32) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Run `f` inside a span named `name` when tracing; plain call otherwise.
pub fn span<T>(log: &mut Option<SpanLog>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match log {
        None => f(),
        Some(l) => {
            let id = l.begin(name);
            let out = f();
            l.end(id);
            out
        }
    }
}

/// Self time of every span of one log: its duration minus the union of
/// its children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total self time (ns) per span name.
pub fn self_ns_by_name(logs: &[Vec<Span>]) -> BTreeMap<&'static str, u64> {
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for spans in logs {
        for (s, own) in spans.iter().zip(self_times(spans)) {
            *out.entry(s.name).or_default() += own;
        }
    }
    out
}

/// Write every span as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, logs: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (client, spans) in logs.iter().enumerate() {
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"client\":{client},\"id\":{id},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            req: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            sp("op", None, 0, 100),
            sp("a", Some(0), 10, 40),
            sp("b", Some(0), 30, 60),  // overlaps a: [10, 60] counts once
            sp("c", Some(0), 90, 120), // clipped to the parent's end
            sp("d", Some(1), 15, 20),  // grandchild: only a loses it
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![100 - 50 - 10, 30 - 5, 30, 30, 5]);
    }

    #[test]
    fn nested_log_spans_link_parents() {
        let mut log = Some(SpanLog::new(Instant::now()));
        log.as_mut().unwrap().set_request(9);
        let v = span(&mut log, "outer", || 1) + 1;
        assert_eq!(v, 2);
        let mut l = log.take().unwrap();
        let outer = l.begin("op");
        let inner = l.begin("inner");
        l.end(inner);
        l.end(outer);
        let spans = l.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[1].parent, None);
        assert!(spans.iter().all(|s| s.req == 9 && s.end_ns >= s.start_ns));
        let op_dur = spans[1].dur_ns();
        let own = self_ns_by_name(&[spans]);
        assert!(own["op"] <= op_dur);
        assert_eq!(own.len(), 3);
    }
}
