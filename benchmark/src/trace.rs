//! The span recorder of the traced run.
//!
//! Spans are recorded around calls into the program from this
//! benchmark's own code; the program itself carries no tracing. Each
//! span has a name (`<layer>.<call>`), start and end (nanoseconds since
//! the recorder was made), the span that caused it, and the request it
//! served. Spans stay in memory until [`Tracer::write`].

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub req: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start) as f64 / 1e6
    }

    /// The layer: the name up to its last `.` (`net.pdes.gather` is in
    /// layer `net.pdes`).
    pub fn layer(&self) -> &'static str {
        self.name
            .rsplit_once('.')
            .map_or(self.name, |(layer, _)| layer)
    }
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    pub fn at(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// A fresh span id, for a span whose children start before it ends.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Runs `f` inside a new span; returns its result and the span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Span) {
        let id = self.reserve();
        let start = self.now();
        let out = f();
        let span = Span {
            id,
            parent,
            req,
            name,
            start,
            end: self.now(),
        };
        self.record(span.clone());
        (out, span)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Writes every span, one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"req":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.id, parent, s.req, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Self time of each span, in ms: its duration minus the part of it
/// that its children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children.entry(parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                // Union of the children's intervals, clipped to the parent.
                let mut reach = s.start;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(reach), end.min(s.end));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (s.end - s.start).saturating_sub(covered) as f64 / 1e6
        })
        .collect()
}
