//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name, its start and end (ns since the tracer was
//! made), the span that caused it, and — for TCP requests — the request
//! id every span of that request shares. Spans stay in memory and are
//! written out once, when the run ends. With tracing off, [`Tracer::time`]
//! still measures (the end-to-end numbers need the duration) but records
//! nothing.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique within the tracer.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Shared by every span of one TCP request.
    pub request: Option<u64>,
    /// Layer call, e.g. `proximity.compute`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

/// Collects spans when enabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer's origin.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// A fresh span (or request) id.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records finished spans (no-op when disabled).
    pub fn extend(&self, spans: impl IntoIterator<Item = Span>) {
        if self.enabled {
            self.spans.lock().expect("span buffer").extend(spans);
        }
    }

    /// Runs `f` inside a span named `name` under `parent`, passing the
    /// span's id so nested calls can name it as their parent. Returns
    /// the result and the duration in seconds, traced or not.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> T,
    ) -> (T, f64) {
        let id = if self.enabled { self.next_id() } else { 0 };
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        if self.enabled {
            self.extend([Span {
                id,
                parent,
                request: None,
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            }]);
        }
        (out, (end - start).as_secs_f64())
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer").clone()
    }

    /// Per-name `(count, total ns, self ns)` over the recorded spans.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        totals(&self.spans())
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                opt(s.parent),
                opt(s.request),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

fn opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// Self time of every span (same order as `spans`): its duration minus
/// the part of its interval that its children cover. Overlapping
/// children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&s.id) else {
                return dur;
            };
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
            dur - covered.min(dur)
        })
        .collect()
}

/// Per-name `(count, total ns, self ns)`.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns.saturating_sub(s.start_ns);
        e.2 += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: None,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(1, None, "fit", 0, 100),
            span(2, Some(1), "train", 10, 60),
            // Overlaps the first child: only 60..70 is new coverage.
            span(3, Some(1), "write", 50, 70),
            span(4, Some(2), "ckpt", 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![100 - 60, 50 - 10, 20, 10]);
        let t = totals(&spans);
        assert_eq!(t["fit"], (1, 100, 40));
        assert_eq!(t["train"], (1, 50, 40));
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span(1, None, "a", 10, 20), span(2, Some(1), "b", 0, 15)];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn disabled_tracer_measures_but_records_nothing() {
        let t = Tracer::new(false);
        let (v, secs) = t.time("x", None, |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());

        let t = Tracer::new(true);
        let ((), _) = t.time("outer", None, |id| {
            t.time("inner", Some(id), |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, Some(spans[1].id));
    }
}
