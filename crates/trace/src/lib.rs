//! # dbpim-trace: the observability substrate of the DB-PIM workspace
//!
//! Every layer of the reproduction — pipeline phases, the cycle-accurate
//! simulator, DSE drivers, the serving daemon, the fleet orchestrator —
//! reports through this crate. It has three legs:
//!
//! * **Spans** ([`collector`](mod@collector)) — a global, thread-safe
//!   [`TraceCollector`] records nested, thread-id-tagged spans with
//!   monotonic-clock timestamps into a bounded ring buffer. The [`span!`]
//!   macro opens a span whose guard records it on drop; when no collector
//!   is installed the whole thing is one relaxed atomic load, so
//!   instrumented hot paths (the macro and requantize kernels) stay hot.
//!   Per-tile kernel events additionally pass a sampling knob
//!   ([`kernel_span`]) so a collector can keep one in N instead of
//!   drowning in them.
//! * **Metrics** ([`metrics`]) — a [`MetricsRegistry`] unifying named
//!   counters, gauges and the log₂-bucketed [`LatencyHistogram`]
//!   (previously private to the serving layer; its serde wire format is
//!   unchanged).
//! * **Exporters** ([`chrome`]) — Chrome trace-event JSON (loadable in
//!   Perfetto / `chrome://tracing`) and a human-readable per-phase
//!   summary table, plus the `--trace-out` plumbing ([`TraceSink`])
//!   every binary shares.
//!
//! A leveled, timestamped logger ([`logger`]) rides along so daemons emit
//! grep-able `LEVEL [tag] message` lines instead of ad-hoc `eprintln!`s.
//!
//! The cardinal rule, enforced by `tests/trace_observability.rs`: tracing
//! **never changes results**. A run with a collector installed must be
//! bit-identical in its outputs to the same run without one, and all trace
//! and log output goes to files or stderr — never to the deterministic
//! stdout reports CI byte-diffs.
//!
//! ```
//! use std::sync::Arc;
//! use dbpim_trace::{span, ChromeTrace, TraceCollector};
//!
//! let collector = Arc::new(TraceCollector::new());
//! dbpim_trace::install(Arc::clone(&collector));
//! {
//!     let _outer = span!("pipeline.compile", model = "resnet18");
//!     let _inner = span!("compile.layer", layer = 3);
//! }
//! dbpim_trace::uninstall();
//! let json = ChromeTrace::render(&collector.snapshot());
//! assert!(json.contains("pipeline.compile"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod collector;
pub mod histogram;
pub mod logger;
pub mod metrics;

pub use chrome::{phase_summary, render_phase_table, ChromeTrace, PhaseSummary, ProcessLane};
pub use collector::{
    collector, enabled, install, kernel_span, kernel_span_with, start_span, uninstall,
    unix_micros_now, CollectorSnapshot, SpanGuard, SpanRecord, TraceCollector, TraceSink,
    TraceSpan, DEFAULT_CAPACITY, DEFAULT_KERNEL_SAMPLING,
};
pub use histogram::{LatencyHistogram, LATENCY_BUCKETS};
pub use logger::{log_enabled, log_level, set_log_level, LogLevel};
pub use metrics::{MetricsRegistry, MetricsSnapshot};
