//! In-memory span recorder for the traced run.
//!
//! A span is a layer call timed from the benchmark's side: name, start,
//! end, the span that caused it, and an id shared by every span of one
//! request (or one repetition). Each thread records into its own
//! [`Tracer`]; tracers are merged at the end, spans are linked to their
//! request's root span by id, and each layer's self time is its spans'
//! durations minus the time their children cover. Nothing is recorded
//! when tracing is off, and nothing is written until the run ends.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    /// A tracer sharing this one's clock origin, for another thread.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.on, self.origin)
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span; returns its index for children to name
    /// as parent (`None` when tracing is off).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        id: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            id,
        });
        Some(self.spans.len() - 1)
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, id);
        out
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Gives every parentless span whose id matches a `root` span that
    /// root as parent: spans of one request recorded on different
    /// threads join up here.
    pub fn link_to_roots(&mut self, root: &'static str) {
        let roots: HashMap<u64, usize> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
            .map(|(i, s)| (s.id, i))
            .collect();
        for s in &mut self.spans {
            if s.parent.is_none() && s.name != root {
                s.parent = roots.get(&s.id).copied();
            }
        }
    }

    /// Self time (seconds) and span count per layer name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(c);
            let e = out.entry(s.name).or_insert((0.0, 0));
            e.0 += own as f64 * 1e-9;
            e.1 += 1;
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"i\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        w.flush()
    }
}
