//! Spans around the benchmark's calls into each layer, kept in memory,
//! folded into per-name self times, and written out as Chrome-trace JSON
//! when the run ends.
//!
//! A span's parent is the innermost span still open on the same thread,
//! or an explicit parent for work started on another thread. Self time is
//! a span's duration minus the part of it its children cover.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `core.guard`.
    pub name: &'static str,
    /// The workload operation (cell, profiler run, request) it belongs to.
    pub op: u64,
    /// Recording thread.
    pub tid: u32,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; a disabled tracer costs one branch per span.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

impl Tracer {
    /// A tracer that records (`true`) or does nothing (`false`).
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span under the innermost open span of this thread.
    pub fn span(&self, name: &'static str, op: u64) -> SpanGuard<'_> {
        let parent = OPEN.with(|s| s.borrow().last().copied());
        self.span_under(name, parent, op)
    }

    /// Opens a span under an explicit parent (work handed to a thread).
    pub fn span_under(&self, name: &'static str, parent: Option<u64>, op: u64) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                id: 0,
                parent: None,
                name,
                op,
                start_ns: 0,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|s| s.borrow_mut().push(id));
        SpanGuard {
            tracer: self,
            id,
            parent,
            name,
            op,
            start_ns: self.now_ns(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Every finished span, in finishing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }
}

/// An open span; it ends when dropped.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    op: u64,
    start_ns: u64,
}

impl SpanGuard<'_> {
    /// The span's id, for children started on other threads (`None` when
    /// tracing is off).
    pub fn id(&self) -> Option<u64> {
        (self.id != 0).then_some(self.id)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        OPEN.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == self.id) {
                s.remove(pos);
            }
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            op: self.op,
            tid: TID.with(|t| *t),
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Self time of each span, aligned with `spans`: its duration minus the
/// union of its children's intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Name of the root span of a traced run.
pub const ROOT: &str = "run";
/// Name of a root child that measures with tracing off, for comparison.
pub const UNTRACED: &str = "bench.untraced";

/// Traced wall time, nanoseconds: the root span minus its untraced
/// children.
pub fn traced_wall_ns(spans: &[Span]) -> Option<u64> {
    let root = spans
        .iter()
        .find(|s| s.name == ROOT && s.parent.is_none())?;
    let untraced: u64 = spans
        .iter()
        .filter(|s| s.name == UNTRACED && s.parent == Some(root.id))
        .map(Span::dur_ns)
        .sum();
    Some(root.dur_ns() - untraced)
}

/// Share of the traced wall that child spans of the root cover.
pub fn coverage(spans: &[Span]) -> Option<f64> {
    let (root, self_ns) = spans
        .iter()
        .zip(self_times(spans))
        .find(|(s, _)| s.name == ROOT)?;
    let wall = traced_wall_ns(spans)?;
    let untraced = root.dur_ns() - wall;
    Some((root.dur_ns() - self_ns - untraced) as f64 / wall.max(1) as f64)
}

/// Per-name totals of a folded trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Folded {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self times, nanoseconds.
    pub self_ns: u64,
}

/// Folds spans by name.
pub fn fold(spans: &[Span]) -> BTreeMap<&'static str, Folded> {
    let mut out: BTreeMap<&'static str, Folded> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let f = out.entry(s.name).or_default();
        f.count += 1;
        f.total_ns += s.dur_ns();
        f.self_ns += self_ns;
    }
    out
}

/// The folded table as text, largest self time first, with each name's
/// share of `wall_ns`.
pub fn folded_table(folded: &BTreeMap<&'static str, Folded>, wall_ns: u64) -> String {
    let mut rows: Vec<_> = folded.iter().collect();
    rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
    let mut out = format!(
        "{:<28} {:>8} {:>12} {:>12} {:>8}\n",
        "span", "count", "total_ms", "self_ms", "self_%"
    );
    for (name, f) in rows {
        out += &format!(
            "{:<28} {:>8} {:>12.3} {:>12.3} {:>8.2}\n",
            name,
            f.count,
            f.total_ns as f64 / 1e6,
            f.self_ns as f64 / 1e6,
            100.0 * f.self_ns as f64 / wall_ns.max(1) as f64
        );
    }
    out
}

/// Chrome-trace JSON (`chrome://tracing`, Perfetto) of `spans`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out += &format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.op
        );
    }
    out.push_str("]}\n");
    out
}
