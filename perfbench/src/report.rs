//! The metric list (read from `BENCHMARK.json`, the one place metric
//! names, units and bounds are defined) and the result line a run prints.

use pps_obs::json::{self, Json};
use std::collections::BTreeMap;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit, e.g. `ms`.
    pub unit: String,
    /// `lower` or `higher` is better.
    pub better: String,
    /// Share of the baseline median by which an end-to-end metric may get
    /// worse; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// Metrics of untraced runs.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of traced runs.
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Parses `BENCHMARK.json` text.
    ///
    /// # Errors
    /// Malformed JSON or a missing field.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            let list = doc
                .get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("no `{key}` list"))?;
            list.iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or(format!("{key}: entry without `{k}`"))
                    };
                    Ok(MetricSpec {
                        name: s("name")?,
                        unit: s("unit")?,
                        better: s("better")?,
                        bound: m.get("bound").and_then(Json::as_num),
                    })
                })
                .collect()
        };
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("no `workloads` list")?
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect::<Option<Vec<_>>>()
            .ok_or("workload without a name")?;
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_num)
                .ok_or("no `run_seconds`")? as u64,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// Reads and parses the file at `path`.
    ///
    /// # Errors
    /// As [`Spec::parse`], or the file cannot be read.
    pub fn load(path: &str) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Spec::parse(&text)
    }

    /// Looks a metric up in either list.
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Checks that failed, one message each.
    pub errors: Vec<String>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Counts one operation, failed when `error` is set.
    pub fn op(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(e) = error {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(e);
            }
        }
    }

    /// Records a failed check that is not one operation.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(message());
        }
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The result line: every metric of `metrics` in order. A per-layer
    /// metric the workload never exercises reads 0; an end-to-end metric
    /// must have been measured.
    ///
    /// # Errors
    /// A value was recorded under a name `metrics` does not list, an
    /// end-to-end metric is missing, or a value is not finite.
    pub fn to_json(&self, metrics: &[MetricSpec], zero_if_idle: bool) -> Result<String, String> {
        if let Some(stray) = self
            .values
            .keys()
            .find(|k| !metrics.iter().any(|m| &m.name == *k))
        {
            return Err(format!(
                "metric `{stray}` is not declared in BENCHMARK.json"
            ));
        }
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        let mut body = Vec::with_capacity(metrics.len());
        for m in metrics {
            let value = match (self.values.get(&m.name), zero_if_idle) {
                (Some(v), _) => *v,
                (None, true) => 0.0,
                (None, false) => return Err(format!("metric `{}` was not measured", m.name)),
            };
            if !value.is_finite() {
                return Err(format!("metric `{}` is {value}", m.name));
            }
            body.push(format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(",")
        ))
    }
}

/// A run's result line read back: its metric values.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The run passed its checks.
    pub correct: bool,
    /// Operations that failed.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
}

impl RunResult {
    /// Parses the last line a run printed.
    ///
    /// # Errors
    /// Malformed JSON or a missing field.
    pub fn parse(line: &str) -> Result<RunResult, String> {
        let doc = json::parse(line.trim())?;
        let metrics = match doc.get("metrics") {
            Some(Json::Obj(members)) => members,
            _ => return Err("result without `metrics`".into()),
        };
        let mut values = BTreeMap::new();
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Json::as_num)
                .ok_or(format!("`{name}` has no value"))?;
            values.insert(name.clone(), v);
        }
        Ok(RunResult {
            correct: matches!(doc.get("correct"), Some(Json::Bool(true))),
            failed: doc.get("failed").and_then(Json::as_num).unwrap_or(0.0) as u64,
            values,
        })
    }
}
