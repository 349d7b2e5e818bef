//! Exporters: Chrome trace-event JSON (Perfetto / `chrome://tracing`) and
//! the human-readable per-phase summary table.
//!
//! The JSON uses the trace-event "object format": a top-level
//! `traceEvents` array of complete (`"ph":"X"`) events with microsecond
//! `ts`/`dur`, one `pid` per process lane and each lane's dense thread
//! ids as `tid`. Every lane leads with `process_name`/`thread_name`
//! metadata (`"ph":"M"`) events so Perfetto labels it, and span arguments
//! land in each event's `args` object, so Perfetto shows `layer = 3` on
//! hover. [`ChromeTrace::render_lanes`] merges several processes — the
//! fleet driver and its remote daemons — into one document, provided the
//! caller has already shifted every lane's timestamps onto one clock.

use serde::value::Value;
use serde::{Deserialize, Serialize};

use crate::collector::TraceSpan;

/// One process's worth of spans in a merged multi-process trace. The
/// span timestamps must already be expressed on the merged document's
/// common clock (the caller applies epoch/offset alignment).
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessLane {
    /// The `pid` Perfetto groups this lane's events under — the real OS
    /// process id of the traced process.
    pub pid: u64,
    /// Human-readable lane label (`dbpim-fleet`, `dbpim-served :7641`).
    pub name: String,
    /// The lane's spans, timestamps on the common clock.
    pub spans: Vec<TraceSpan>,
}

/// Builds Chrome trace-event JSON from collected spans.
#[derive(Debug, Clone, Copy)]
pub struct ChromeTrace;

impl ChromeTrace {
    /// Renders spans drained from this process's collector as a complete
    /// Chrome trace-event JSON document (one lane under the real process
    /// id).
    #[must_use]
    pub fn render(spans: &[TraceSpan]) -> String {
        let lane = ProcessLane {
            pid: u64::from(std::process::id()),
            name: process_name(),
            spans: spans.to_vec(),
        };
        Self::render_lanes(std::slice::from_ref(&lane))
    }

    /// Renders several process lanes as one merged Chrome trace-event
    /// JSON document. Each lane contributes a `process_name` metadata
    /// event, a `thread_name` metadata event per distinct thread, and its
    /// spans as complete events under the lane's `pid`.
    #[must_use]
    pub fn render_lanes(lanes: &[ProcessLane]) -> String {
        let mut trace_events: Vec<Value> = Vec::new();
        for lane in lanes {
            trace_events.push(metadata_value("process_name", lane.pid, 0, &lane.name));
            let threads: std::collections::BTreeSet<u64> =
                lane.spans.iter().map(|span| span.thread).collect();
            for thread in threads {
                trace_events.push(metadata_value(
                    "thread_name",
                    lane.pid,
                    thread,
                    &format!("thread {thread}"),
                ));
            }
            trace_events.extend(lane.spans.iter().map(|span| event_value(span, lane.pid)));
        }
        let document = Value::Map(vec![
            ("traceEvents".to_string(), Value::Seq(trace_events)),
            ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
        ]);
        serde_json::to_string(&document).expect("a JSON document always serializes")
    }
}

/// The current executable's file stem, the conventional Perfetto lane
/// label for a single-process trace.
pub(crate) fn process_name() -> String {
    std::env::current_exe()
        .ok()
        .and_then(|path| path.file_stem().map(|stem| stem.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "dbpim".to_string())
}

/// One `ph: "M"` metadata event (`process_name` / `thread_name`).
fn metadata_value(name: &str, pid: u64, tid: u64, label: &str) -> Value {
    Value::Map(vec![
        ("name".to_string(), Value::Str(name.to_string())),
        ("ph".to_string(), Value::Str("M".to_string())),
        ("pid".to_string(), Value::U64(pid)),
        ("tid".to_string(), Value::U64(tid)),
        ("args".to_string(), Value::Map(vec![("name".to_string(), Value::Str(label.to_string()))])),
    ])
}

/// One span as a complete (`ph: "X"`) trace event. The span's id rides in
/// `args.span` so cross-process parent references (`parent_span` args)
/// can be followed inside the merged document.
fn event_value(span: &TraceSpan, pid: u64) -> Value {
    let mut args: Vec<(String, Value)> =
        span.args.iter().map(|(key, value)| (key.clone(), Value::Str(value.clone()))).collect();
    if span.id != 0 {
        args.push(("span".to_string(), Value::U64(span.id)));
    }
    Value::Map(vec![
        ("name".to_string(), Value::Str(span.name.clone())),
        ("cat".to_string(), Value::Str("dbpim".to_string())),
        ("ph".to_string(), Value::Str("X".to_string())),
        ("ts".to_string(), Value::U64(span.start_micros)),
        ("dur".to_string(), Value::U64(span.duration_micros)),
        ("pid".to_string(), Value::U64(pid)),
        ("tid".to_string(), Value::U64(span.thread)),
        ("args".to_string(), Value::Map(args)),
    ])
}

/// Aggregate statistics of every span sharing one name — one row of the
/// per-phase summary table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSummary {
    /// The span name (`pipeline.quantize`, `sim.layer`, …).
    pub name: String,
    /// Spans recorded under this name.
    pub count: u64,
    /// Total time across all spans, in microseconds.
    pub total_micros: u64,
    /// Mean span duration, in microseconds.
    pub mean_micros: u64,
    /// Longest span, in microseconds.
    pub max_micros: u64,
}

/// Folds spans into per-name [`PhaseSummary`] rows, ordered by descending
/// total time (ties broken by name so the table is deterministic).
#[must_use]
pub fn phase_summary(events: &[TraceSpan]) -> Vec<PhaseSummary> {
    let mut by_name: std::collections::BTreeMap<&str, PhaseSummary> =
        std::collections::BTreeMap::new();
    for event in events {
        let row = by_name.entry(&event.name).or_insert_with(|| PhaseSummary {
            name: event.name.clone(),
            count: 0,
            total_micros: 0,
            mean_micros: 0,
            max_micros: 0,
        });
        row.count += 1;
        row.total_micros = row.total_micros.saturating_add(event.duration_micros);
        row.max_micros = row.max_micros.max(event.duration_micros);
    }
    let mut rows: Vec<PhaseSummary> = by_name.into_values().collect();
    for row in &mut rows {
        row.mean_micros = row.total_micros.checked_div(row.count).unwrap_or(0);
    }
    rows.sort_by(|a, b| b.total_micros.cmp(&a.total_micros).then_with(|| a.name.cmp(&b.name)));
    rows
}

/// Renders the phase summary as an aligned text table (for stderr or
/// EXPERIMENTS.md; never stdout of a deterministic report).
#[must_use]
pub fn render_phase_table(rows: &[PhaseSummary]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:>8} {:>12} {:>12} {:>12}\n",
        "span", "count", "total ms", "mean µs", "max µs"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<28} {:>8} {:>12.3} {:>12} {:>12}\n",
            row.name,
            row.count,
            row.total_micros as f64 / 1000.0,
            row.mean_micros,
            row.max_micros,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(
        name: &str,
        thread: u64,
        start: u64,
        duration: u64,
        args: Vec<(String, String)>,
    ) -> TraceSpan {
        TraceSpan {
            id: 7,
            name: name.to_string(),
            thread,
            depth: 0,
            start_micros: start,
            duration_micros: duration,
            args,
        }
    }

    fn events_of(json: &str) -> Vec<Value> {
        let value: Value = serde_json::from_str(json).expect("well-formed JSON");
        value.get("traceEvents").and_then(Value::as_seq).expect("traceEvents array").to_vec()
    }

    fn field<'a>(event: &'a Value, name: &str) -> Option<&'a Value> {
        assert!(event.as_map().is_some(), "event object");
        event.get(name)
    }

    // Parsed JSON integers come back as `I64` when they fit; rendered ones
    // are `U64`. Tests compare through this unifier.
    fn as_num(value: &Value) -> Option<u64> {
        match value {
            Value::I64(i) => u64::try_from(*i).ok(),
            Value::U64(u) => Some(*u),
            _ => None,
        }
    }

    #[test]
    fn chrome_json_is_wellformed_and_parses_back() {
        let events = vec![
            record("pipeline.quantize", 0, 10, 100, vec![("model".into(), "resnet18".into())]),
            record("sim.layer", 1, 120, 30, Vec::new()),
        ];
        let json = ChromeTrace::render(&events);
        let trace_events = events_of(&json);
        // One process_name, two thread_name metadata events, two spans.
        assert_eq!(trace_events.len(), 5);
        let metadata: Vec<&Value> = trace_events
            .iter()
            .filter(|e| field(e, "ph").and_then(Value::as_str) == Some("M"))
            .collect();
        assert_eq!(metadata.len(), 3);
        assert_eq!(field(metadata[0], "name").and_then(Value::as_str), Some("process_name"));
        let spans: Vec<&Value> = trace_events
            .iter()
            .filter(|e| field(e, "ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert_eq!(spans.len(), 2);
        let first = spans[0];
        assert_eq!(field(first, "name").and_then(Value::as_str), Some("pipeline.quantize"));
        // The real process id replaces the historical hardcoded `pid: 1`.
        assert_eq!(field(first, "pid").and_then(as_num), Some(u64::from(std::process::id())));
        let args = field(first, "args").expect("args");
        assert_eq!(field(args, "model").and_then(Value::as_str), Some("resnet18"));
        // The span id rides along for cross-process correlation.
        assert_eq!(field(args, "span").and_then(as_num), Some(7));
    }

    #[test]
    fn merged_lanes_keep_their_pids_and_labels() {
        let driver = ProcessLane {
            pid: 100,
            name: "dbpim-fleet".to_string(),
            spans: vec![record("dse.point", 0, 50, 400, Vec::new())],
        };
        let daemon = ProcessLane {
            pid: 200,
            name: "dbpim-served 127.0.0.1:7641".to_string(),
            spans: vec![record("serve.request", 3, 120, 200, Vec::new())],
        };
        let json = ChromeTrace::render_lanes(&[driver, daemon]);
        let trace_events = events_of(&json);
        // Per lane: process_name + one thread_name + one span.
        assert_eq!(trace_events.len(), 6);
        let pids: std::collections::BTreeSet<u64> = trace_events
            .iter()
            .filter(|e| field(e, "ph").and_then(Value::as_str) == Some("X"))
            .filter_map(|e| field(e, "pid").and_then(as_num))
            .collect();
        assert_eq!(pids, [100, 200].into_iter().collect());
        let labels: Vec<&str> = trace_events
            .iter()
            .filter(|e| field(e, "name").and_then(Value::as_str) == Some("process_name"))
            .filter_map(|e| {
                field(e, "args").and_then(|args| field(args, "name")).and_then(Value::as_str)
            })
            .collect();
        assert_eq!(labels, vec!["dbpim-fleet", "dbpim-served 127.0.0.1:7641"]);
        let daemon_span = trace_events
            .iter()
            .find(|e| field(e, "name").and_then(Value::as_str) == Some("serve.request"))
            .expect("daemon span present");
        assert_eq!(field(daemon_span, "tid").and_then(as_num), Some(3));
    }

    #[test]
    fn phase_summary_aggregates_and_orders_by_total() {
        let events = vec![
            record("b.small", 0, 0, 10, Vec::new()),
            record("a.big", 0, 10, 70, Vec::new()),
            record("b.small", 0, 80, 20, Vec::new()),
        ];
        let rows = phase_summary(&events);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "a.big");
        assert_eq!(rows[0].count, 1);
        assert_eq!(rows[0].total_micros, 70);
        assert_eq!(rows[1].name, "b.small");
        assert_eq!(rows[1].count, 2);
        assert_eq!(rows[1].total_micros, 30);
        assert_eq!(rows[1].mean_micros, 15);
        assert_eq!(rows[1].max_micros, 20);

        let table = render_phase_table(&rows);
        assert!(table.contains("a.big"), "{table}");
        assert!(table.lines().count() == 3, "{table}");
    }
}
