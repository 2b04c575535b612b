//! Prometheus text exposition (version 0.0.4): rendering a
//! [`MetricsRegistry`] (plus gauges) into scrape output, and a small
//! parser/validator used by `pps-client top` and the CI telemetry smoke
//! stage to check what the daemon serves.
//!
//! Renderer conventions:
//!
//! - metric names are sanitized (`serve.latency_ms` → `serve_latency_ms`);
//!   counters get a `_total` suffix;
//! - histograms expose cumulative `_bucket{le="..."}` series over the
//!   registry's log-scaled bounds (only buckets up to the first one at the
//!   series total are emitted, then `le="+Inf"`), plus `_sum` and
//!   `_count`;
//! - gauges are point-in-time values the caller supplies (queue depth,
//!   worker counts, PGO counters from the health snapshot).
//!
//! The parser accepts the subset the renderer emits (and what Prometheus
//! itself would scrape): `# HELP`/`# TYPE` comments, `name{labels} value`
//! samples, `+Inf` bucket bounds. [`validate`] checks the structural
//! invariants scrapers rely on: monotone cumulative buckets, `_count`
//! equal to the `+Inf` bucket, `_sum` present, every value finite.

use crate::metrics::{bucket_bound, MetricsRegistry, FINITE_BUCKETS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A point-in-time gauge for the exposition.
#[derive(Debug, Clone)]
pub struct Gauge {
    /// Already-sanitized metric name (e.g. `serve_queue_depth`).
    pub name: String,
    /// Label pairs.
    pub labels: Vec<(String, String)>,
    /// Current value.
    pub value: f64,
}

impl Gauge {
    /// A label-less gauge.
    pub fn new(name: &str, value: f64) -> Gauge {
        Gauge { name: name.to_string(), labels: Vec::new(), value }
    }
}

/// Maps a registry metric name onto the Prometheus grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
pub fn sanitize_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn write_labels(out: &mut String, labels: &[(String, String)]) {
    if labels.is_empty() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&sanitize_name(k));
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
}

fn write_labels_with_le(out: &mut String, labels: &[(String, String)], le: &str) {
    out.push('{');
    for (k, v) in labels {
        out.push_str(&sanitize_name(k));
        out.push_str("=\"");
        out.push_str(v);
        out.push_str("\",");
    }
    out.push_str("le=\"");
    out.push_str(le);
    out.push_str("\"}");
}

fn number(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

/// Renders the registry's counters and histograms plus the given gauges as
/// Prometheus text exposition. Series order is deterministic (registry
/// iteration order, then gauges in argument order).
pub fn render(registry: &MetricsRegistry, gauges: &[Gauge]) -> String {
    let mut out = String::with_capacity(4096);
    let mut last_family = String::new();
    let type_line = |out: &mut String, family: &str, kind: &str, last: &mut String| {
        if family != last {
            let _ = writeln!(out, "# TYPE {family} {kind}");
            last.clear();
            last.push_str(family);
        }
    };

    for (key, value) in registry.counters() {
        let family = format!("{}_total", sanitize_name(&key.name));
        type_line(&mut out, &family, "counter", &mut last_family);
        out.push_str(&family);
        write_labels(&mut out, &key.labels);
        let _ = writeln!(out, " {value}");
    }

    for (key, h) in registry.histograms() {
        let family = sanitize_name(&key.name);
        type_line(&mut out, &family, "histogram", &mut last_family);
        let mut cum = 0u64;
        for i in 0..FINITE_BUCKETS {
            cum += h.buckets[i];
            out.push_str(&family);
            out.push_str("_bucket");
            write_labels_with_le(&mut out, &key.labels, &number(bucket_bound(i)));
            let _ = writeln!(out, " {cum}");
            if cum == h.count {
                // Every remaining finite bucket would repeat the total;
                // stop at the first saturated bound and go to +Inf.
                break;
            }
        }
        out.push_str(&family);
        out.push_str("_bucket");
        write_labels_with_le(&mut out, &key.labels, "+Inf");
        let _ = writeln!(out, " {}", h.count);
        out.push_str(&family);
        out.push_str("_sum");
        write_labels(&mut out, &key.labels);
        let _ = writeln!(out, " {}", number(if h.sum.is_finite() { h.sum } else { 0.0 }));
        out.push_str(&family);
        out.push_str("_count");
        write_labels(&mut out, &key.labels);
        let _ = writeln!(out, " {}", h.count);
    }

    for g in gauges {
        let family = sanitize_name(&g.name);
        type_line(&mut out, &family, "gauge", &mut last_family);
        out.push_str(&family);
        write_labels(&mut out, &g.labels);
        let _ = writeln!(out, " {}", number(if g.value.is_finite() { g.value } else { 0.0 }));
    }
    out
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Full sample name (`serve_latency_ms_bucket`).
    pub name: String,
    /// Label pairs, in source order (includes `le` for buckets).
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Labels with `le` removed — the identity of a bucket's parent series.
    pub fn labels_without_le(&self) -> Vec<(String, String)> {
        self.labels.iter().filter(|(k, _)| k != "le").cloned().collect()
    }
}

/// A parsed exposition document.
#[derive(Debug, Clone, Default)]
pub struct ExpoDoc {
    /// Every sample, in source order.
    pub samples: Vec<Sample>,
    /// `# TYPE` declarations: family name → declared type.
    pub types: BTreeMap<String, String>,
}

impl ExpoDoc {
    /// All samples with exactly this name.
    pub fn by_name<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Sample> {
        self.samples.iter().filter(move |s| s.name == name)
    }

    /// Sum of every sample with this name (e.g. a counter across labels).
    pub fn total(&self, name: &str) -> f64 {
        self.by_name(name).map(|s| s.value).sum()
    }

    /// The single value of `name` with no label filter, if exactly one
    /// sample carries it.
    pub fn single(&self, name: &str) -> Option<f64> {
        let mut it = self.by_name(name);
        let first = it.next()?;
        if it.next().is_some() {
            return None;
        }
        Some(first.value)
    }
}

fn parse_value(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        _ => s.parse().map_err(|_| format!("bad value `{s}`")),
    }
}

/// Parses exposition text into samples and type declarations.
///
/// # Errors
/// A human-readable message naming the offending line.
pub fn parse(text: &str) -> Result<ExpoDoc, String> {
    let mut doc = ExpoDoc::default();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let (Some(name), Some(kind)) = (parts.next(), parts.next()) else {
                    return Err(format!("line {}: malformed TYPE comment", ln + 1));
                };
                doc.types.insert(name.to_string(), kind.to_string());
            }
            continue; // HELP and other comments
        }
        doc.samples.push(parse_sample(line).map_err(|e| format!("line {}: {e}", ln + 1))?);
    }
    Ok(doc)
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let bytes = line.as_bytes();
    let name_end = bytes
        .iter()
        .position(|&b| b == b'{' || b == b' ' || b == b'\t')
        .ok_or("no value on sample line")?;
    let name = &line[..name_end];
    if name.is_empty() {
        return Err("empty metric name".into());
    }
    let mut labels = Vec::new();
    let mut pos = name_end;
    if bytes[pos] == b'{' {
        pos += 1;
        loop {
            while pos < bytes.len() && (bytes[pos] == b' ' || bytes[pos] == b',') {
                pos += 1;
            }
            if pos >= bytes.len() {
                return Err("unterminated label set".into());
            }
            if bytes[pos] == b'}' {
                pos += 1;
                break;
            }
            let key_start = pos;
            while pos < bytes.len() && bytes[pos] != b'=' {
                pos += 1;
            }
            let key = line[key_start..pos].trim().to_string();
            pos += 1; // '='
            if pos >= bytes.len() || bytes[pos] != b'"' {
                return Err(format!("label `{key}`: expected quoted value"));
            }
            pos += 1;
            let mut value = String::new();
            loop {
                if pos >= bytes.len() {
                    return Err(format!("label `{key}`: unterminated string"));
                }
                match bytes[pos] {
                    b'"' => {
                        pos += 1;
                        break;
                    }
                    b'\\' => {
                        pos += 1;
                        match bytes.get(pos) {
                            Some(b'n') => value.push('\n'),
                            Some(&c) => value.push(c as char),
                            None => return Err("dangling escape".into()),
                        }
                        pos += 1;
                    }
                    _ => {
                        // Multi-byte chars: copy the full char.
                        let c = line[pos..].chars().next().expect("in bounds");
                        value.push(c);
                        pos += c.len_utf8();
                    }
                }
            }
            labels.push((key, value));
        }
    }
    let rest = line[pos..].trim();
    // A timestamp may follow the value; take the first token.
    let value_str = rest.split_whitespace().next().ok_or("no value on sample line")?;
    Ok(Sample { name: name.to_string(), labels, value: parse_value(value_str)? })
}

/// Checks the invariants a scraper relies on. For every histogram family
/// (`X_bucket`/`X_sum`/`X_count` with shared non-`le` labels):
///
/// - bucket values are cumulative and monotone non-decreasing in `le`
///   order, ending in a `+Inf` bucket;
/// - `X_count` equals the `+Inf` bucket;
/// - `X_sum` is present;
///
/// and every sample value in the document is finite (no `NaN` leaks; the
/// only permitted infinity is the `+Inf` *bound label*).
///
/// # Errors
/// The first violated invariant, as a message.
pub fn validate(doc: &ExpoDoc) -> Result<(), String> {
    for s in &doc.samples {
        if !s.value.is_finite() {
            return Err(format!("{}: non-finite sample value {}", s.name, s.value));
        }
    }

    // Group buckets by (family, labels-without-le).
    let mut families: BTreeMap<(String, String), Vec<(f64, f64)>> = BTreeMap::new();
    for s in &doc.samples {
        let Some(family) = s.name.strip_suffix("_bucket") else { continue };
        let Some(le) = s.label("le") else {
            return Err(format!("{}: bucket sample without le label", s.name));
        };
        let bound = parse_value(le).map_err(|e| format!("{}: le: {e}", s.name))?;
        let ident = format!("{:?}", s.labels_without_le());
        families.entry((family.to_string(), ident)).or_default().push((bound, s.value));
    }
    for ((family, ident), mut buckets) in families {
        buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("bounds are not NaN"));
        let mut prev = f64::NEG_INFINITY;
        for &(bound, v) in &buckets {
            if v < prev {
                return Err(format!(
                    "{family}{ident}: bucket le={bound} value {v} below previous {prev} \
                     (buckets must be cumulative)"
                ));
            }
            prev = v;
        }
        let Some(&(last_bound, inf_value)) = buckets.last() else { continue };
        if last_bound != f64::INFINITY {
            return Err(format!("{family}{ident}: no le=\"+Inf\" bucket"));
        }
        let count_name = format!("{family}_count");
        let count = doc
            .samples
            .iter()
            .find(|s| s.name == count_name && format!("{:?}", s.labels) == ident)
            .ok_or_else(|| format!("{family}{ident}: missing {count_name}"))?;
        if count.value != inf_value {
            return Err(format!(
                "{family}{ident}: _count {} != +Inf bucket {}",
                count.value, inf_value
            ));
        }
        let sum_name = format!("{family}_sum");
        if !doc
            .samples
            .iter()
            .any(|s| s.name == sum_name && format!("{:?}", s.labels) == ident)
        {
            return Err(format!("{family}{ident}: missing {sum_name}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Histogram, MetricKey};

    fn sample_registry() -> MetricsRegistry {
        let mut r = MetricsRegistry::default();
        r.add(MetricKey::new("serve.requests", &[("type", "ping"), ("outcome", "ok")]), 5);
        r.add(MetricKey::new("serve.requests", &[("type", "compile"), ("outcome", "ok")]), 2);
        for v in [0.5, 1.5, 3.0, 250.0] {
            r.record(MetricKey::new("serve.latency_ms", &[("type", "compile")]), v);
        }
        r
    }

    #[test]
    fn render_parse_round_trip_preserves_series() {
        let reg = sample_registry();
        let gauges = [Gauge::new("serve_queue_depth", 3.0), Gauge::new("pgo_swaps", 1.0)];
        let text = render(&reg, &gauges);
        let doc = parse(&text).expect("rendered exposition parses");
        assert_eq!(doc.total("serve_requests_total"), 7.0);
        assert_eq!(doc.single("serve_queue_depth"), Some(3.0));
        assert_eq!(doc.single("pgo_swaps"), Some(1.0));
        assert_eq!(doc.single("serve_latency_ms_count"), Some(4.0));
        assert_eq!(doc.single("serve_latency_ms_sum"), Some(255.0));
        assert_eq!(doc.types.get("serve_requests_total").map(String::as_str), Some("counter"));
        assert_eq!(doc.types.get("serve_latency_ms").map(String::as_str), Some("histogram"));
        assert_eq!(doc.types.get("serve_queue_depth").map(String::as_str), Some("gauge"));
        validate(&doc).expect("renderer output passes its own validator");
    }

    #[test]
    fn buckets_are_cumulative_and_capped_with_inf() {
        let reg = sample_registry();
        let doc = parse(&render(&reg, &[])).unwrap();
        let buckets: Vec<&Sample> = doc.by_name("serve_latency_ms_bucket").collect();
        assert!(buckets.len() >= 2);
        let mut prev = -1.0;
        for b in &buckets {
            assert!(b.value >= prev, "bucket counts must not decrease");
            prev = b.value;
        }
        let inf = buckets.iter().find(|b| b.label("le") == Some("+Inf")).expect("+Inf bucket");
        assert_eq!(inf.value, 4.0);
    }

    #[test]
    fn empty_histogram_and_nonfinite_gauge_render_finite() {
        // A merged-from-empty histogram: count 0, min/max still sentinels.
        let mut h = Histogram::default();
        h.merge(&Histogram::default());
        let mut reg = MetricsRegistry::default();
        reg.record(MetricKey::new("h", &[]), 1.0);
        let text = render(&reg, &[Gauge::new("g", f64::INFINITY)]);
        assert!(!text.contains("inf") || text.contains("+Inf"), "only le bounds may be Inf");
        let doc = parse(&text).unwrap();
        validate(&doc).expect("non-finite gauge was clamped");
        assert_eq!(doc.single("g"), Some(0.0));
        assert_eq!(doc.single("h_count"), Some(1.0));
    }

    #[test]
    fn sanitizer_covers_registry_names() {
        assert_eq!(sanitize_name("serve.latency_ms"), "serve_latency_ms");
        assert_eq!(sanitize_name("pgo.drift-score"), "pgo_drift_score");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name(""), "_");
    }

    #[test]
    fn parser_handles_escapes_and_rejects_garbage() {
        let doc = parse("m{a=\"x\\\"y\\\\z\",b=\"w\"} 2.5\n").unwrap();
        assert_eq!(doc.samples[0].label("a"), Some("x\"y\\z"));
        assert_eq!(doc.samples[0].value, 2.5);
        assert!(parse("m{a=\"unterminated} 1\n").is_err());
        assert!(parse("m{a=noquote} 1\n").is_err());
        assert!(parse("justaname\n").is_err());
        assert!(parse("m notanumber\n").is_err());
    }

    #[test]
    fn validator_catches_broken_histograms() {
        // Non-monotone buckets.
        let text = "h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\n\
                    h_sum 9\nh_count 5\n";
        let err = validate(&parse(text).unwrap()).unwrap_err();
        assert!(err.contains("cumulative"), "{err}");
        // _count disagreeing with +Inf.
        let text = "h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 4\n";
        let err = validate(&parse(text).unwrap()).unwrap_err();
        assert!(err.contains("_count"), "{err}");
        // Missing +Inf.
        let text = "h_bucket{le=\"1\"} 5\nh_sum 9\nh_count 5\n";
        let err = validate(&parse(text).unwrap()).unwrap_err();
        assert!(err.contains("+Inf"), "{err}");
        // Missing _sum.
        let text = "h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_count 5\n";
        let err = validate(&parse(text).unwrap()).unwrap_err();
        assert!(err.contains("_sum"), "{err}");
        // NaN sample.
        let err = validate(&parse("g NaN\n").unwrap()).unwrap_err();
        assert!(err.contains("non-finite"), "{err}");
    }
}
