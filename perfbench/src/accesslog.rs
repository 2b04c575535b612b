//! Parser for the lines `pps-serve --access-log` writes, one JSON object
//! per reply.

use pps_obs::json::{self, Json};

/// The fields of one access-log line the benchmark uses.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessRecord {
    /// Daemon-assigned request sequence number.
    pub trace_id: u64,
    /// Request kind: `profile`, `compile`, `runcell`, `ping`, `shutdown`.
    pub kind: String,
    /// 0 ok, 1 busy, 2 shutting down, 10 and up for errors.
    pub retcode: u32,
    /// Time the request waited in the daemon's queue.
    pub queue_wait_ms: f64,
    /// Time a worker spent executing it.
    pub service_ms: f64,
    /// First request byte read to reply written.
    pub total_ms: f64,
    /// Reply payload size.
    pub bytes: u64,
}

/// Parses one line.
///
/// # Errors
/// Malformed JSON or a missing or mistyped field.
pub fn parse_line(line: &str) -> Result<AccessRecord, String> {
    let doc = json::parse(line.trim())?;
    let num = |key: &str| -> Result<f64, String> {
        doc.get(key)
            .and_then(Json::as_num)
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or_else(|| format!("access log: missing or bad `{key}` in {line}"))
    };
    let kind = doc
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("access log: missing `type` in {line}"))?
        .to_string();
    Ok(AccessRecord {
        trace_id: num("trace_id")? as u64,
        kind,
        retcode: num("retcode")? as u32,
        queue_wait_ms: num("queue_wait_ms")?,
        service_ms: num("service_ms")?,
        total_ms: num("total_ms")?,
        bytes: num("bytes")? as u64,
    })
}
