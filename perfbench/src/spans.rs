//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! Each thread owns a [`Tracer`]. Spans nest: a span opened while another
//! is open is its child. Every closed span is folded into per-name totals,
//! including its self time (its duration minus what its children cover),
//! and the first [`MAX_SPANS`] are also kept in memory and written out by
//! [`write_jsonl`] when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept per tracer for the span file; later spans still count in
/// the totals but are not written, so the file stays bounded.
const MAX_SPANS: usize = 1 << 16;

/// One closed span as written to the span file.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer call, e.g. `core.classify`.
    pub name: &'static str,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Id of the parent span in the same tracer; 0 for a root.
    pub parent: u32,
    /// Request (or document) id shared by the spans of one request.
    pub req: u64,
}

/// Per-name totals over closed spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans.
    pub self_ns: u64,
}

/// An open span.
#[derive(Debug)]
struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    /// Index + 1 into `spans`, or 0 when the span is not kept.
    id: u32,
}

/// A per-thread span recorder. A disabled tracer records nothing and
/// costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    thread: &'static str,
    epoch: Instant,
    enabled: bool,
    stack: Vec<Open>,
    totals: BTreeMap<&'static str, Totals>,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A tracer for `thread`, timing from the shared run `epoch`.
    pub fn new(thread: &'static str, epoch: Instant, enabled: bool) -> Self {
        Self {
            thread,
            epoch,
            enabled,
            stack: Vec::new(),
            totals: BTreeMap::new(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, req: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().map_or(0, |p| p.id);
        let start_ns = self.now_ns();
        let id = if self.spans.len() < MAX_SPANS && (parent != 0 || self.stack.is_empty()) {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                req,
            });
            self.spans.len() as u32
        } else {
            self.dropped += 1;
            0
        };
        self.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            id,
        });
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        let Some(open) = self.stack.pop() else {
            return;
        };
        let end_ns = self.now_ns();
        let dur = end_ns - open.start_ns;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if open.id != 0 {
            self.spans[open.id as usize - 1].end_ns = end_ns;
        }
        let t = self.totals.entry(open.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
    }

    /// Time `f` as a span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, req);
        let r = f();
        self.end();
        r
    }

    /// Closed spans that were counted but not kept for the span file.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Merge the per-name totals of several tracers.
pub fn summarize<'a>(
    tracers: impl IntoIterator<Item = &'a Tracer>,
) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for t in tracers {
        for (name, x) in &t.totals {
            let e = out.entry(name).or_default();
            e.count += x.count;
            e.total_ns += x.total_ns;
            e.self_ns += x.self_ns;
        }
    }
    out
}

/// Write every kept span as one JSON object per line.
pub fn write_jsonl<'a>(
    path: &Path,
    tracers: impl IntoIterator<Item = &'a Tracer>,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for t in tracers {
        for (i, s) in t.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"thread\":\"{}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                t.thread,
                i + 1,
                s.parent,
                s.name,
                s.req,
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new("main", Instant::now(), true);
        t.begin("root", 7);
        t.span("child", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end();
        let sums = summarize([&t]);
        let (root, child) = (sums["root"], sums["child"]);
        assert_eq!((root.count, child.count), (1, 1));
        assert!(child.total_ns >= 2_000_000);
        assert_eq!(root.self_ns, root.total_ns - child.total_ns);
        assert_eq!(child.self_ns, child.total_ns);
        assert_eq!(t.spans[1].parent, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new("main", Instant::now(), false);
        t.span("x", 0, || ());
        assert!(t.spans.is_empty() && summarize([&t]).is_empty());
    }
}
