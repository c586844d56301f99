//! In-memory span recorder for the traced run (`--trace 1`).
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer: name, start, end and the enclosing span. They stay in
//! memory and are written out once, when the run ends. A layer's self
//! time is its spans' duration minus the part of each span that its
//! child spans cover (overlapping children, e.g. jobs timed on parallel
//! workers, are counted once). With tracing off every call is a direct
//! call: no clock is read and nothing is stored.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::now;

/// One recorded interval, in nanoseconds since the tracer was created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Totals for every span of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, epoch: now(), spans: Vec::new(), open: Vec::new(), counts: BTreeMap::new() }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Add `n` to the counter `name` (work done at a span boundary, e.g.
    /// robots generated), so ratios are taken where the work happens.
    pub fn count(&mut self, name: &'static str, n: usize) {
        if self.on {
            *self.counts.entry(name).or_default() += n as u64;
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f` inside a span called `name`; spans `f` opens are its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.ns(now());
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(now());
        out
    }

    /// Record an interval timed elsewhere — a job on a worker thread —
    /// as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: end_ns.max(start_ns), parent });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total time and self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&children) {
            let mut covered_by: Vec<(u64, u64)> = kids
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| b > a)
                .collect();
            covered_by.sort_unstable();
            let mut covered = 0;
            let mut run: Option<(u64, u64)> = None;
            for (a, b) in covered_by {
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            let dur = s.end_ns - s.start_ns;
            let layer = out.entry(s.name).or_default();
            layer.count += 1;
            layer.total_ns += dur;
            layer.self_ns += dur.saturating_sub(covered);
        }
        out
    }

    /// Write every span as one flat JSON line (`id`, `name`, `start_ns`,
    /// `end_ns`, `parent`, `workload`).
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"workload\":\"{workload}\"}}",
                s.name, s.start_ns, s.end_ns,
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("a", |t| t.span("b", |_| 7)), 7);
        t.record("c", Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_excludes_children_and_counts_overlap_once() {
        let mut t = Tracer::new(true);
        let base = Instant::now();
        t.span("parent", |t| {
            std::thread::sleep(Duration::from_millis(2));
            // Two overlapping children over the same 1 ms interval.
            let a = base + Duration::from_millis(1);
            let b = a + Duration::from_millis(1);
            t.record("job", a, b);
            t.record("job", a, b);
        });
        let layers = t.layers();
        let parent = layers["parent"];
        let job = layers["job"];
        assert_eq!(job.count, 2);
        assert_eq!(job.self_ns, job.total_ns, "leaves are all self time");
        assert_eq!(parent.count, 1);
        // The parent's self time loses the children's union, once.
        assert_eq!(parent.total_ns - parent.self_ns, job.total_ns / 2);
        assert_eq!(t.spans()[1].parent, Some(0));
    }
}
