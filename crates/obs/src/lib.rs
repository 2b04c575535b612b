#![warn(missing_docs)]

//! `pps-obs`: the zero-dependency observability layer of the workspace.
//!
//! The scheduler pipeline is instrumented with three kinds of signals, all
//! flowing through one cloneable [`Obs`] handle:
//!
//! - **Spans** ([`Obs::span`]) — hierarchical wall-time intervals
//!   (benchmark → procedure → pass). Exported as Chrome trace-event JSON
//!   ([`Obs::export_trace_json`]) viewable in Perfetto.
//! - **Metrics** ([`Obs::counter`], [`Obs::histogram`]) — labeled counters
//!   and histograms in a [`MetricsRegistry`], exported as stable-schema
//!   JSON ([`Obs::export_metrics_json`]).
//! - **Decision events** ([`Obs::decision`]) — structured instant events
//!   (trace id, weight, chosen/rejected reason) that make formation and
//!   compaction choices queryable instead of guessable.
//!
//! Plus leveled logging ([`Obs::log`]) to stderr.
//!
//! ## Overhead contract
//!
//! [`Obs::noop`] is the pay-for-what-you-use off switch: it holds no
//! allocation and every method is a single `Option` check that returns
//! immediately — no formatting, no clock reads, no locking. Library entry
//! points default to the no-op handle; recording is opted into per call
//! chain by passing [`Obs::recording`]. Log-message construction is kept
//! lazy by taking closures.
//!
//! The recording handle uses a `Mutex` around an event vector and the
//! registry; the pipeline is single-threaded per run, so contention is
//! nil, and events are only serialized at export time.

pub mod expo;
pub mod json;
pub mod metrics;
pub mod quantile;
pub mod trace;
pub mod window;

pub use metrics::{Histogram, MetricKey, MetricsRegistry};
pub use trace::{ArgValue, TraceEvent};
pub use window::{Clock, ManualClock, SystemClock, WindowedRegistry};

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// Log verbosity threshold, in increasing order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Level {
    /// Suppress all logging.
    Off,
    /// Failures only.
    Error,
    /// Recoverable anomalies (e.g. guard incidents).
    Warn,
    /// Progress (per-experiment/per-benchmark lines). The harness default.
    #[default]
    Info,
    /// Per-pass detail.
    Debug,
}

impl Level {
    /// Parses `error|warn|info|debug|off` (case-insensitive).
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "off" => Some(Level::Off),
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }

    fn tag(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// Configuration of a recording [`Obs`] handle.
#[derive(Debug, Clone, Copy)]
pub struct ObsConfig {
    /// Stderr log threshold.
    pub level: Level,
    /// Record trace events (spans, decisions, instants).
    pub trace: bool,
    /// Record metrics (counters, histograms).
    pub metrics: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig { level: Level::Info, trace: true, metrics: true }
    }
}

struct Recorder {
    t0: Instant,
    level: Level,
    trace_enabled: bool,
    metrics_enabled: bool,
    events: Mutex<Vec<TraceEvent>>,
    metrics: Mutex<MetricsRegistry>,
    tids: Mutex<(HashMap<ThreadId, u64>, u64)>,
}

impl Recorder {
    fn tid(&self) -> u64 {
        let mut guard = self.tids.lock().unwrap();
        let (map, next) = &mut *guard;
        let id = std::thread::current().id();
        if let Some(&t) = map.get(&id) {
            return t;
        }
        *next += 1;
        map.insert(id, *next);
        *next
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_nanos() as f64 / 1000.0
    }
}

/// The observability handle threaded through the pipeline.
///
/// Cloning is cheap (an `Arc` clone). A handle carries an optional label
/// context ([`Obs::with_label`]) applied to every counter and histogram it
/// records — the runner scopes a handle per `bench`/`scheme`, formation
/// adds `proc`, and so on.
#[derive(Clone, Default)]
pub struct Obs {
    rec: Option<Arc<Recorder>>,
    labels: Option<Arc<Vec<(String, String)>>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("recording", &self.rec.is_some())
            .field("labels", &self.labels)
            .finish()
    }
}

impl Obs {
    /// The no-op handle: records nothing, logs nothing, allocates nothing.
    pub fn noop() -> Obs {
        Obs { rec: None, labels: None }
    }

    /// A recording handle with its own clock zero and empty registry.
    pub fn recording(config: ObsConfig) -> Obs {
        Obs {
            rec: Some(Arc::new(Recorder {
                t0: Instant::now(),
                level: config.level,
                trace_enabled: config.trace,
                metrics_enabled: config.metrics,
                events: Mutex::new(Vec::new()),
                metrics: Mutex::new(MetricsRegistry::default()),
                tids: Mutex::new((HashMap::new(), 0)),
            })),
            labels: None,
        }
    }

    /// True when this handle records anything at all.
    pub fn is_recording(&self) -> bool {
        self.rec.is_some()
    }

    /// A child handle whose counters/histograms additionally carry
    /// `key=value`. No-op handles stay no-op (and allocation-free).
    pub fn with_label(&self, key: &str, value: impl Into<String>) -> Obs {
        let Some(rec) = &self.rec else { return Obs::noop() };
        let mut labels: Vec<(String, String)> =
            self.labels.as_ref().map(|l| l.as_ref().clone()).unwrap_or_default();
        let value = value.into();
        match labels.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value,
            None => labels.push((key.to_string(), value)),
        }
        labels.sort();
        Obs { rec: Some(rec.clone()), labels: Some(Arc::new(labels)) }
    }

    // ------------------------------------------------------------------
    // Spans
    // ------------------------------------------------------------------

    /// Opens a span; it closes (and is recorded) when the returned guard
    /// drops. On a no-op handle this costs one branch and nothing else.
    pub fn span(&self, name: &str) -> Span {
        match &self.rec {
            Some(rec) if rec.trace_enabled => Span {
                rec: Some(rec.clone()),
                name: name.to_string(),
                start_us: rec.now_us(),
                tid: rec.tid(),
                args: Vec::new(),
            },
            _ => Span { rec: None, name: String::new(), start_us: 0.0, tid: 0, args: Vec::new() },
        }
    }

    // ------------------------------------------------------------------
    // Instant / decision events
    // ------------------------------------------------------------------

    /// Records an instant event under category `cat`.
    pub fn instant(&self, cat: &str, name: &str, args: &[(&str, ArgValue)]) {
        let Some(rec) = &self.rec else { return };
        if !rec.trace_enabled {
            return;
        }
        let event = TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: 'i',
            ts_us: rec.now_us(),
            dur_us: None,
            tid: rec.tid(),
            args: args.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
        };
        rec.events.lock().unwrap().push(event);
    }

    /// Records a structured decision event (category `decision`) — a
    /// formation or compaction choice with its inputs (path id, weight)
    /// and outcome (chosen/rejected reason) attached as args.
    pub fn decision(&self, name: &str, args: &[(&str, ArgValue)]) {
        self.instant("decision", name, args);
    }

    // ------------------------------------------------------------------
    // Metrics
    // ------------------------------------------------------------------

    /// Adds `delta` to counter `name` under this handle's label context.
    pub fn counter(&self, name: &str, delta: u64) {
        self.counter_labeled(name, &[], delta);
    }

    /// [`Obs::counter`] with extra per-call labels on top of the handle's.
    pub fn counter_labeled(&self, name: &str, extra: &[(&str, &str)], delta: u64) {
        let Some(rec) = &self.rec else { return };
        if !rec.metrics_enabled {
            return;
        }
        rec.metrics.lock().unwrap().add(self.key(name, extra), delta);
    }

    /// Records one histogram sample under this handle's label context.
    pub fn histogram(&self, name: &str, value: f64) {
        let Some(rec) = &self.rec else { return };
        if !rec.metrics_enabled {
            return;
        }
        rec.metrics.lock().unwrap().record(self.key(name, &[]), value);
    }

    fn key(&self, name: &str, extra: &[(&str, &str)]) -> MetricKey {
        let mut labels: Vec<(String, String)> =
            self.labels.as_ref().map(|l| l.as_ref().clone()).unwrap_or_default();
        for (k, v) in extra {
            match labels.iter_mut().find(|(lk, _)| lk == k) {
                Some(slot) => slot.1 = v.to_string(),
                None => labels.push((k.to_string(), v.to_string())),
            }
        }
        labels.sort();
        MetricKey { name: name.to_string(), labels }
    }

    // ------------------------------------------------------------------
    // Forked sinks (parallel recording)
    // ------------------------------------------------------------------

    /// A recording handle with this handle's clock zero, level, and label
    /// context but **fresh, private buffers**. Worker threads record into
    /// forks without contending on (or interleaving into) the parent;
    /// [`Obs::absorb`] folds a fork back in. Forking a no-op handle yields
    /// a no-op handle.
    pub fn fork_sink(&self) -> Obs {
        let Some(rec) = &self.rec else { return Obs::noop() };
        Obs {
            rec: Some(Arc::new(Recorder {
                t0: rec.t0,
                level: rec.level,
                trace_enabled: rec.trace_enabled,
                metrics_enabled: rec.metrics_enabled,
                events: Mutex::new(Vec::new()),
                metrics: Mutex::new(MetricsRegistry::default()),
                tids: Mutex::new((HashMap::new(), 0)),
            })),
            labels: self.labels.clone(),
        }
    }

    /// Drains a fork's recorded events and metrics into this handle.
    ///
    /// Counters add and histogram summaries merge ([`MetricsRegistry::merge`]);
    /// trace events keep their fork-relative timestamps (forks share the
    /// parent's clock zero) with thread ids remapped to fresh lanes so
    /// distinct workers stay distinct in the merged trace. Absorbing in a
    /// deterministic order makes the merged metrics export byte-stable
    /// regardless of how many workers recorded. The fork is left empty;
    /// absorbing it twice, absorbing a no-op, or absorbing into a no-op is
    /// harmless.
    pub fn absorb(&self, fork: &Obs) {
        let (Some(rec), Some(frec)) = (&self.rec, &fork.rec) else { return };
        if std::ptr::eq(Arc::as_ptr(rec), Arc::as_ptr(frec)) {
            return;
        }
        if rec.trace_enabled {
            let mut events = std::mem::take(&mut *frec.events.lock().unwrap());
            if !events.is_empty() {
                let mut remap: HashMap<u64, u64> = HashMap::new();
                {
                    let mut guard = rec.tids.lock().unwrap();
                    let (_, next) = &mut *guard;
                    for e in &mut events {
                        let t = *remap.entry(e.tid).or_insert_with(|| {
                            *next += 1;
                            *next
                        });
                        e.tid = t;
                    }
                }
                rec.events.lock().unwrap().extend(events);
            }
        }
        if rec.metrics_enabled {
            let snapshot = std::mem::take(&mut *frec.metrics.lock().unwrap());
            rec.metrics.lock().unwrap().merge(&snapshot);
        }
    }

    // ------------------------------------------------------------------
    // Logging
    // ------------------------------------------------------------------

    /// True when a message at `level` would be emitted — guard expensive
    /// message construction with this (or use the lazy [`Obs::log`]).
    pub fn log_enabled(&self, level: Level) -> bool {
        matches!(&self.rec, Some(rec) if level <= rec.level && level != Level::Off)
    }

    /// Logs lazily: `msg` is only invoked (and the line only printed) when
    /// `level` passes the threshold. The line is also recorded as an
    /// instant trace event (category `log`) when tracing is enabled.
    pub fn log(&self, level: Level, msg: impl FnOnce() -> String) {
        if !self.log_enabled(level) {
            return;
        }
        let text = msg();
        eprintln!("[pps {}] {}", level.tag(), text);
        self.instant("log", level.tag(), &[("message", ArgValue::Str(text))]);
    }

    // ------------------------------------------------------------------
    // Export / introspection
    // ------------------------------------------------------------------

    /// Number of trace events recorded so far (0 for no-op handles).
    pub fn event_count(&self) -> usize {
        self.rec.as_ref().map_or(0, |r| r.events.lock().unwrap().len())
    }

    /// Sum of counter `name` across all label combinations (0 for no-op).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.rec
            .as_ref()
            .map_or(0, |r| r.metrics.lock().unwrap().counter_total(name))
    }

    /// A snapshot of the metrics registry, if metrics recording is on.
    pub fn metrics_snapshot(&self) -> Option<MetricsRegistry> {
        match &self.rec {
            Some(rec) if rec.metrics_enabled => Some(rec.metrics.lock().unwrap().clone()),
            _ => None,
        }
    }

    /// Chrome trace-event JSON of everything recorded, if tracing is on.
    pub fn export_trace_json(&self) -> Option<String> {
        match &self.rec {
            Some(rec) if rec.trace_enabled => {
                Some(trace::export_chrome(&rec.events.lock().unwrap()))
            }
            _ => None,
        }
    }

    /// Stable-schema metrics JSON, if metrics recording is on.
    pub fn export_metrics_json(&self) -> Option<String> {
        self.metrics_snapshot().map(|m| m.to_json())
    }

    /// Writes the trace JSON to `path`. Returns `false` (writing nothing)
    /// when tracing is disabled.
    ///
    /// # Errors
    /// Propagates the filesystem error.
    pub fn write_trace(&self, path: &str) -> std::io::Result<bool> {
        match self.export_trace_json() {
            Some(doc) => std::fs::write(path, doc).map(|()| true),
            None => Ok(false),
        }
    }

    /// Writes the metrics JSON to `path`. Returns `false` when metrics
    /// recording is disabled.
    ///
    /// # Errors
    /// Propagates the filesystem error.
    pub fn write_metrics(&self, path: &str) -> std::io::Result<bool> {
        match self.export_metrics_json() {
            Some(doc) => std::fs::write(path, doc).map(|()| true),
            None => Ok(false),
        }
    }
}

/// RAII span guard from [`Obs::span`]; records a complete (`ph:"X"`)
/// trace event when dropped.
#[must_use = "a span measures until it is dropped; binding it to `_` drops it immediately"]
pub struct Span {
    rec: Option<Arc<Recorder>>,
    name: String,
    start_us: f64,
    tid: u64,
    args: Vec<(String, ArgValue)>,
}

impl Span {
    /// Attaches a structured argument (builder-style).
    pub fn arg(mut self, key: &str, value: impl Into<ArgValue>) -> Self {
        if self.rec.is_some() {
            self.args.push((key.to_string(), value.into()));
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(rec) = self.rec.take() else { return };
        let end_us = rec.now_us();
        let event = TraceEvent {
            name: std::mem::take(&mut self.name),
            cat: "span".to_string(),
            ph: 'X',
            ts_us: self.start_us,
            dur_us: Some((end_us - self.start_us).max(0.0)),
            tid: self.tid,
            args: std::mem::take(&mut self.args),
        };
        rec.events.lock().unwrap().push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_records_and_allocates_nothing() {
        let obs = Obs::noop();
        {
            let _s = obs.span("x").arg("k", 1u64);
            obs.counter("c", 5);
            obs.histogram("h", 1.0);
            obs.decision("d", &[("w", ArgValue::UInt(1))]);
            obs.log(Level::Error, || unreachable!("lazy message must not run"));
        }
        assert_eq!(obs.event_count(), 0);
        assert_eq!(obs.counter_total("c"), 0);
        assert!(obs.export_trace_json().is_none());
        assert!(obs.export_metrics_json().is_none());
        assert!(!obs.is_recording());
        // Labeling a no-op handle keeps it no-op.
        assert!(!obs.with_label("bench", "wc").is_recording());
    }

    #[test]
    fn spans_nest_by_interval() {
        let obs = Obs::recording(ObsConfig::default());
        {
            let _outer = obs.span("outer").arg("bench", "wc");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = obs.span("inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            {
                let _inner2 = obs.span("inner2");
            }
        }
        let doc = json::parse(&obs.export_trace_json().unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 3);
        let find = |name: &str| {
            events
                .iter()
                .find(|e| e.get("name").unwrap().as_str() == Some(name))
                .unwrap_or_else(|| panic!("span {name} missing"))
        };
        let (outer, inner, inner2) = (find("outer"), find("inner"), find("inner2"));
        let span_of = |e: &json::Json| {
            let ts = e.get("ts").unwrap().as_num().unwrap();
            let dur = e.get("dur").unwrap().as_num().unwrap();
            (ts, ts + dur)
        };
        let (o0, o1) = span_of(outer);
        for child in [inner, inner2] {
            let (c0, c1) = span_of(child);
            assert!(o0 <= c0 && c1 <= o1, "child [{c0},{c1}] outside parent [{o0},{o1}]");
        }
        // Siblings must not overlap.
        let (a0, a1) = span_of(inner);
        let (b0, _) = span_of(inner2);
        assert!(a1 <= b0 || b0 >= a0, "sibling ordering");
        // Everything ran on one thread.
        assert!(events
            .iter()
            .all(|e| e.get("tid").unwrap().as_num() == Some(1.0)));
    }

    #[test]
    fn labels_scope_counters() {
        let obs = Obs::recording(ObsConfig::default());
        let wc = obs.with_label("bench", "wc");
        let go = obs.with_label("bench", "go");
        wc.counter("runs", 1);
        go.counter("runs", 2);
        go.with_label("bench", "override").counter("runs", 4);
        assert_eq!(obs.counter_total("runs"), 7);
        let m = obs.metrics_snapshot().unwrap();
        assert_eq!(m.counters().count(), 3, "three distinct label sets");
    }

    #[test]
    fn log_respects_threshold() {
        let obs = Obs::recording(ObsConfig { level: Level::Warn, ..Default::default() });
        assert!(obs.log_enabled(Level::Error));
        assert!(obs.log_enabled(Level::Warn));
        assert!(!obs.log_enabled(Level::Info));
        obs.log(Level::Info, || unreachable!("suppressed message must stay lazy"));
        obs.log(Level::Warn, || "recorded".to_string());
        assert_eq!(obs.event_count(), 1, "log line became a trace event");
        let off = Obs::recording(ObsConfig { level: Level::Off, ..Default::default() });
        assert!(!off.log_enabled(Level::Error));
    }

    #[test]
    fn level_parsing() {
        assert_eq!(Level::parse("info"), Some(Level::Info));
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("off"), Some(Level::Off));
        assert_eq!(Level::parse("nope"), None);
    }

    #[test]
    fn fork_records_privately_and_absorb_merges() {
        let obs = Obs::recording(ObsConfig::default());
        obs.counter("runs", 1);
        {
            let _parent_span = obs.span("parent");
        }
        let forks: Vec<Obs> = (0..2).map(|_| obs.fork_sink()).collect();
        std::thread::scope(|s| {
            for (i, fork) in forks.iter().enumerate() {
                s.spawn(move || {
                    let _sp = fork.span("work").arg("worker", i as u64);
                    fork.counter("runs", 10);
                    fork.histogram("h", i as f64);
                });
            }
        });
        // Nothing leaked into the parent before absorption.
        assert_eq!(obs.counter_total("runs"), 1);
        assert_eq!(obs.event_count(), 1);
        for fork in &forks {
            obs.absorb(fork);
            obs.absorb(fork); // drained: second absorb is a no-op
        }
        assert_eq!(obs.counter_total("runs"), 21);
        assert_eq!(obs.event_count(), 3);
        let m = obs.metrics_snapshot().unwrap();
        let (_, h) = m.histograms().next().unwrap();
        assert_eq!((h.count, h.min, h.max), (2, 0.0, 1.0));
        // Worker lanes stay distinct from the parent's and each other's.
        let doc = json::parse(&obs.export_trace_json().unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let tids: std::collections::HashSet<u64> = events
            .iter()
            .map(|e| e.get("tid").unwrap().as_num().unwrap() as u64)
            .collect();
        assert_eq!(tids.len(), 3);
    }

    #[test]
    fn forked_labels_and_noop_absorb() {
        let obs = Obs::recording(ObsConfig::default());
        let labeled = obs.with_label("bench", "wc");
        let fork = labeled.fork_sink();
        fork.counter("runs", 2);
        obs.absorb(&fork);
        let m = obs.metrics_snapshot().unwrap();
        let (key, _) = m.counters().next().unwrap();
        assert_eq!(key.labels, vec![("bench".to_string(), "wc".to_string())]);
        // No-op interactions are all harmless.
        assert!(!Obs::noop().fork_sink().is_recording());
        obs.absorb(&Obs::noop());
        Obs::noop().absorb(&obs);
        obs.absorb(&obs); // self-absorb must not deadlock or duplicate
        assert_eq!(obs.counter_total("runs"), 2);
    }

    #[test]
    fn disabled_trace_keeps_metrics() {
        let obs = Obs::recording(ObsConfig { trace: false, ..Default::default() });
        let _s = obs.span("x");
        obs.counter("c", 1);
        assert!(obs.export_trace_json().is_none());
        assert_eq!(obs.counter_total("c"), 1);
        let obs = Obs::recording(ObsConfig { metrics: false, ..Default::default() });
        obs.counter("c", 1);
        assert!(obs.export_metrics_json().is_none());
        assert_eq!(obs.counter_total("c"), 0);
    }
}
