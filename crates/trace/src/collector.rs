//! The span collector: thread-safe, thread-id-tagged nested spans with
//! monotonic timestamps, a bounded ring buffer, and a global
//! install/uninstall API whose disabled fast path is one relaxed atomic
//! load.
//!
//! Spans are recorded *on guard drop* (one ring-buffer push per completed
//! span), so opening a span costs nothing but an `Instant::now()` and a
//! thread-local depth bump while a collector is installed — and nothing at
//! all while none is. Per-tile kernel events go through [`kernel_span`],
//! which additionally applies the collector's sampling knob so a per-tile
//! hot path records one span in N instead of millions.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use serde::{Deserialize, Serialize};

use crate::chrome::{phase_summary, process_name, render_phase_table, ChromeTrace, ProcessLane};

/// Default ring-buffer capacity: enough for a full zoo sweep's phase and
/// per-layer spans without unbounded growth under per-request serving.
pub const DEFAULT_CAPACITY: usize = 262_144;

/// Default sampling interval for [`kernel_span`]: record one per-tile
/// kernel event in this many.
pub const DEFAULT_KERNEL_SAMPLING: u64 = 64;

/// One completed span, as [`TraceCollector::drain`] hands it out: what the
/// exporters render, the daemon's `TraceSnapshot` answer carries and the
/// fleet's merged export aligns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSpan {
    /// Process-unique span id (monotonic, never 0 for recorded spans) —
    /// the correlation handle distributed trace contexts carry.
    pub id: u64,
    /// The span name (dot-separated taxonomy, e.g. `pipeline.quantize`).
    pub name: String,
    /// Small dense id of the recording thread (stable within a process).
    pub thread: u64,
    /// Nesting depth at the time the span opened (0 = top level).
    pub depth: u32,
    /// Start offset from the *recording collector's* epoch, microseconds.
    pub start_micros: u64,
    /// Span duration in microseconds.
    pub duration_micros: u64,
    /// Structured key/value arguments (`span!("x", layer = 3)`).
    pub args: Vec<(String, String)>,
}

impl TraceSpan {
    /// End offset from the recording collector's epoch, in microseconds.
    #[must_use]
    pub fn end_micros(&self) -> u64 {
        self.start_micros + self.duration_micros
    }

    /// The value of the argument under `key`, when present.
    #[must_use]
    pub fn arg(&self, key: &str) -> Option<&str> {
        self.args.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// One completed span as the ring stores it: its name and argument keys
/// stay `&'static str` until [`TraceCollector::drain`] hands it out as a
/// [`TraceSpan`], so recording a span copies no name and no key.
#[derive(Debug)]
struct SpanRecord {
    id: u64,
    name: &'static str,
    thread: u64,
    depth: u32,
    start_micros: u64,
    duration_micros: u64,
    args: Vec<(&'static str, String)>,
}

impl SpanRecord {
    fn into_span(self) -> TraceSpan {
        TraceSpan {
            id: self.id,
            name: self.name.to_string(),
            thread: self.thread,
            depth: self.depth,
            start_micros: self.start_micros,
            duration_micros: self.duration_micros,
            args: self.args.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        }
    }
}

/// Everything one process's collector knows, drained for remote export:
/// the spans, the drop count, and the wall-clock anchor that lets a
/// merger translate the monotonic span offsets onto another clock.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CollectorSnapshot {
    /// The collector's epoch as unix time in microseconds (wall clock
    /// captured at construction, beside the monotonic epoch).
    pub epoch_unix_micros: u64,
    /// OS process id of the recording process (a Chrome-trace lane key).
    pub pid: u64,
    /// Spans evicted from the ring buffer because it was full.
    pub dropped: u64,
    /// The drained spans, oldest first.
    pub spans: Vec<TraceSpan>,
}

#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<SpanRecord>,
    dropped: u64,
}

/// The global span sink: a bounded ring buffer of completed spans with a
/// monotonic epoch and a sampling knob for kernel-level events. The one
/// way to read it is [`Self::drain`].
#[derive(Debug)]
pub struct TraceCollector {
    epoch: Instant,
    epoch_unix_micros: u64,
    capacity: usize,
    kernel_sampling: u64,
    kernel_counter: AtomicU64,
    ring: Mutex<Ring>,
}

impl Default for TraceCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceCollector {
    /// A collector with the default capacity and kernel sampling.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A collector storing at most `capacity` completed spans; once full,
    /// the oldest span is dropped per new one (and counted).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            epoch_unix_micros: unix_micros_now(),
            capacity: capacity.max(1),
            kernel_sampling: DEFAULT_KERNEL_SAMPLING,
            kernel_counter: AtomicU64::new(0),
            ring: Mutex::new(Ring::default()),
        }
    }

    /// The collector's epoch as unix time in microseconds — the wall-clock
    /// twin of the monotonic epoch every span offset is relative to.
    #[must_use]
    pub fn epoch_unix_micros(&self) -> u64 {
        self.epoch_unix_micros
    }

    /// Sets the kernel-event sampling interval: [`kernel_span`] records one
    /// span in `every` (1 = record all; clamped to at least 1).
    #[must_use]
    pub fn with_kernel_sampling(mut self, every: u64) -> Self {
        self.kernel_sampling = every.max(1);
        self
    }

    /// `true` when this call wins the 1-in-N kernel sampling lottery.
    fn sample_kernel(&self) -> bool {
        self.kernel_counter.fetch_add(1, Ordering::Relaxed).is_multiple_of(self.kernel_sampling)
    }

    /// Microseconds elapsed since the collector's epoch.
    fn now_micros(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn lock_ring(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn push(&self, record: SpanRecord) {
        let mut ring = self.lock_ring();
        if ring.events.len() >= self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(record);
    }

    /// Moves every stored span out of the ring under one lock acquisition,
    /// so a span recorded concurrently is either in this snapshot or left
    /// for the next, packaged with the clock anchor a remote consumer
    /// needs. The drop counter is reported but survives.
    #[must_use]
    pub fn drain(&self) -> CollectorSnapshot {
        let mut ring = self.lock_ring();
        let spans = ring.events.drain(..).map(SpanRecord::into_span).collect();
        CollectorSnapshot {
            epoch_unix_micros: self.epoch_unix_micros,
            pid: u64::from(std::process::id()),
            dropped: ring.dropped,
            spans,
        }
    }
}

/// Wall-clock "now" as unix time in microseconds (0 before the epoch,
/// which no sane host reports).
#[must_use]
pub fn unix_micros_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
}

// ------------------------------------------------------------ global state

/// Fast-path flag: `false` makes every span entry point a no-op after one
/// relaxed load. Kept in sync with `COLLECTOR` by [`install`]/[`uninstall`].
static INSTALLED: AtomicBool = AtomicBool::new(false);
static COLLECTOR: Mutex<Option<Arc<TraceCollector>>> = Mutex::new(None);
/// Dense per-thread ids for trace tagging (thread 0, 1, 2, … in first-span
/// order; `std::thread::ThreadId` has no stable numeric accessor).
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
/// Process-unique span ids, starting at 1 so 0 can mean "no span".
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Installs `collector` as the process-global span sink, replacing any
/// previous one.
pub fn install(collector: Arc<TraceCollector>) {
    let mut slot = COLLECTOR.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    *slot = Some(collector);
    INSTALLED.store(true, Ordering::Release);
}

/// Uninstalls the global collector (if any) and returns it; spans opened
/// afterwards are no-ops.
pub fn uninstall() -> Option<Arc<TraceCollector>> {
    let mut slot = COLLECTOR.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    INSTALLED.store(false, Ordering::Release);
    slot.take()
}

/// `true` while a collector is installed — the one check every
/// instrumentation site makes before doing any work.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// The currently installed collector, if any — the handle every span
/// entry point records into and remote `TraceSnapshot` handlers drain
/// without uninstalling.
#[must_use]
pub fn collector() -> Option<Arc<TraceCollector>> {
    if !enabled() {
        return None;
    }
    COLLECTOR.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
}

// ------------------------------------------------------------------ spans

/// An open span; records itself into the collector when dropped. Obtained
/// from [`span!`](crate::span!), [`start_span`] or [`kernel_span`].
#[must_use = "a span measures the scope of its guard binding"]
#[derive(Debug)]
pub struct SpanGuard(Option<ActiveSpan>);

#[derive(Debug)]
struct ActiveSpan {
    collector: Arc<TraceCollector>,
    id: u64,
    name: &'static str,
    args: Vec<(&'static str, String)>,
    thread: u64,
    depth: u32,
    start_micros: u64,
}

impl SpanGuard {
    /// The no-op guard every entry point returns while tracing is off.
    pub fn disabled() -> Self {
        SpanGuard(None)
    }

    /// The open span's process-unique id, or `None` for a disabled guard —
    /// what a distributed trace context carries as its parent span.
    #[must_use]
    pub fn id(&self) -> Option<u64> {
        self.0.as_ref().map(|span| span.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(span) = self.0.take() {
            DEPTH.with(|depth| depth.set(depth.get().saturating_sub(1)));
            // End on the same monotonic clock the start came from, so a
            // child's end can never exceed its parent's (exact nesting).
            let duration_micros = span.collector.now_micros().saturating_sub(span.start_micros);
            span.collector.push(SpanRecord {
                id: span.id,
                name: span.name,
                thread: span.thread,
                depth: span.depth,
                start_micros: span.start_micros,
                duration_micros,
                args: span.args,
            });
        }
    }
}

fn open(
    collector: Arc<TraceCollector>,
    name: &'static str,
    args: Vec<(&'static str, String)>,
) -> SpanGuard {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let thread = THREAD_ID.with(|id| *id);
    let depth = DEPTH.with(|depth| {
        let current = depth.get();
        depth.set(current + 1);
        current
    });
    let start_micros = collector.now_micros();
    SpanGuard(Some(ActiveSpan { collector, id, name, args, thread, depth, start_micros }))
}

/// Opens a span on the installed collector (no-op guard when none is).
/// Prefer the [`span!`](crate::span!) macro, which skips argument
/// formatting entirely while tracing is off.
pub fn start_span(name: &'static str, args: Vec<(&'static str, String)>) -> SpanGuard {
    match collector() {
        Some(collector) => open(collector, name, args),
        None => SpanGuard::disabled(),
    }
}

/// Opens a *sampled* kernel-level span: subject to the collector's 1-in-N
/// sampling knob, so per-tile events on a hot path do not flood the ring
/// buffer (or pay per-event formatting).
pub fn kernel_span(name: &'static str) -> SpanGuard {
    match collector() {
        Some(collector) if collector.sample_kernel() => open(collector, name, Vec::new()),
        _ => SpanGuard::disabled(),
    }
}

/// As [`kernel_span`], but attaches lazily-built args: the closure runs
/// only for the sampled 1-in-N events, so op counters on per-dispatch
/// spans cost nothing on the unsampled (or disabled) path.
pub fn kernel_span_with(
    name: &'static str,
    args: impl FnOnce() -> Vec<(&'static str, String)>,
) -> SpanGuard {
    match collector() {
        Some(collector) if collector.sample_kernel() => open(collector, name, args()),
        _ => SpanGuard::disabled(),
    }
}

/// Opens a named span over the enclosing scope.
///
/// ```
/// # use dbpim_trace::span;
/// let _span = span!("compile.layer", layer = 3, name = "conv1");
/// ```
///
/// Arguments are `key = value` pairs captured with `Display` formatting —
/// and *only* when a collector is installed; the disabled path formats
/// nothing.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::start_span($name, ::std::vec::Vec::new())
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::enabled() {
            $crate::start_span(
                $name,
                ::std::vec![$((stringify!($key), ::std::format!("{}", $value))),+],
            )
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

// ------------------------------------------------------------- trace sink

/// The `--trace-out <path>` plumbing shared by every binary: installs a
/// fresh collector on construction and writes the Chrome trace-event JSON
/// on [`TraceSink::finish`].
#[derive(Debug)]
pub struct TraceSink {
    collector: Arc<TraceCollector>,
    path: PathBuf,
}

impl TraceSink {
    /// Installs a fresh default-capacity collector and remembers the
    /// output path.
    pub fn install(path: impl Into<PathBuf>) -> Self {
        let collector = Arc::new(TraceCollector::new());
        install(Arc::clone(&collector));
        Self { collector, path: path.into() }
    }

    /// The installed collector.
    #[must_use]
    pub fn collector(&self) -> &Arc<TraceCollector> {
        &self.collector
    }

    /// The output path the Chrome trace will be written to.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Uninstalls the collector, drains it and writes what the drain took
    /// as one Chrome trace-event document: this process's lane, then
    /// `remote_lanes`, other processes' spans with timestamps already
    /// aligned to this collector's epoch (how `dbpim-fleet --trace-out`
    /// folds in its daemons). Prints one line of span counts, with the
    /// spans this process's ring dropped, and this process's per-phase
    /// table to stderr (stdout stays the deterministic report surface).
    ///
    /// # Errors
    ///
    /// Propagates file-write failures.
    pub fn finish(self, remote_lanes: Vec<ProcessLane>) -> std::io::Result<()> {
        uninstall();
        let CollectorSnapshot { pid, dropped, spans, .. } = self.collector.drain();
        let capacity = self.collector.capacity;
        let line = summary_line(spans.len(), dropped, capacity, &remote_lanes, &self.path);
        let table = render_phase_table(&phase_summary(&spans));
        let local = ProcessLane { pid, name: process_name(), spans };
        let lanes: Vec<ProcessLane> = std::iter::once(local).chain(remote_lanes).collect();
        std::fs::write(&self.path, ChromeTrace::render_lanes(&lanes))?;
        eprintln!("{line}");
        eprint!("{table}");
        Ok(())
    }
}

/// The stderr line of [`TraceSink::finish`]: `local` spans of this process,
/// `dropped` of its older spans the ring of `capacity` evicted before the
/// drain, and the spans of the merged `remote_lanes`.
fn summary_line(
    local: usize,
    dropped: u64,
    capacity: usize,
    remote_lanes: &[ProcessLane],
    path: &Path,
) -> String {
    let mut line = if remote_lanes.is_empty() {
        format!("trace: {local} spans -> {}", path.display())
    } else {
        let remote: usize = remote_lanes.iter().map(|lane| lane.spans.len()).sum();
        let processes = remote_lanes.len() + 1;
        format!(
            "trace: {local} local + {remote} remote spans across {processes} processes -> {}",
            path.display()
        )
    };
    if dropped > 0 {
        let whose = if remote_lanes.is_empty() { "" } else { "local " };
        line.push_str(&format!(
            " ({dropped} older {whose}spans dropped; kept the newest {capacity} {whose}spans)"
        ));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global-collector tests share one process; serialize them so installs
    // do not race.
    static GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_are_no_ops_and_record_nothing() {
        let _guard = GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        uninstall();
        assert!(!enabled());
        {
            let _a = span!("never.recorded");
            let _b = span!("never.either", key = 42);
            let _c = kernel_span("kernel.never");
        }
        let collector = Arc::new(TraceCollector::new());
        install(Arc::clone(&collector));
        uninstall();
        assert!(collector.drain().spans.is_empty());
    }

    #[test]
    fn spans_nest_and_tag_threads() {
        let _guard = GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let collector = Arc::new(TraceCollector::new());
        install(Arc::clone(&collector));
        {
            let _outer = span!("outer", model = "resnet18");
            {
                let _inner = span!("inner", layer = 1);
            }
            let _sibling = span!("inner", layer = 2);
        }
        let worker = std::thread::spawn(|| {
            let _w = span!("worker");
        });
        worker.join().expect("worker thread");
        uninstall();

        let events = collector.drain().spans;
        assert_eq!(events.len(), 4);
        // Drop order: inner(1), inner(2), outer, worker (joined after).
        let outer = events.iter().find(|e| e.name == "outer").expect("outer span");
        assert_eq!(outer.depth, 0);
        assert_eq!(outer.args, vec![("model".to_string(), "resnet18".to_string())]);
        let inners: Vec<_> = events.iter().filter(|e| e.name == "inner").collect();
        assert_eq!(inners.len(), 2);
        for inner in &inners {
            assert_eq!(inner.depth, 1);
            assert_eq!(inner.thread, outer.thread);
            assert!(inner.start_micros >= outer.start_micros);
            assert!(inner.end_micros() <= outer.end_micros());
        }
        let worker = events.iter().find(|e| e.name == "worker").expect("worker span");
        assert_ne!(worker.thread, outer.thread);
        assert_eq!(worker.depth, 0);
    }

    #[test]
    fn ring_buffer_is_bounded_and_counts_drops() {
        let _guard = GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let collector = Arc::new(TraceCollector::with_capacity(4));
        install(Arc::clone(&collector));
        for _ in 0..10 {
            let _s = span!("bounded");
        }
        uninstall();
        let snapshot = collector.drain();
        assert_eq!(snapshot.spans.len(), 4);
        assert_eq!(snapshot.dropped, 6);
    }

    #[test]
    fn kernel_spans_respect_the_sampling_knob() {
        let _guard = GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let collector = Arc::new(TraceCollector::new().with_kernel_sampling(8));
        install(Arc::clone(&collector));
        for _ in 0..64 {
            let _k = kernel_span("kernel.tile");
        }
        uninstall();
        assert_eq!(collector.drain().spans.len(), 8, "1 in 8 of 64 events");
    }

    #[test]
    fn spans_carry_unique_nonzero_ids() {
        let _guard = GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let collector = Arc::new(TraceCollector::new());
        install(Arc::clone(&collector));
        let outer = span!("id.outer");
        let outer_id = outer.id().expect("enabled span has an id");
        {
            let _inner = span!("id.inner");
        }
        drop(outer);
        uninstall();
        assert!(outer_id > 0);
        let events = collector.drain().spans;
        assert_eq!(events.len(), 2);
        assert_ne!(events[0].id, events[1].id);
        assert!(events.iter().all(|e| e.id > 0));
        assert!(SpanGuard::disabled().id().is_none());
    }

    #[test]
    fn drain_empties_the_ring_and_anchors_the_clock() {
        let _guard = GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let collector = Arc::new(TraceCollector::with_capacity(2));
        install(Arc::clone(&collector));
        for _ in 0..5 {
            let _s = span!("drain.me", point = "alexnet/int8");
        }
        uninstall();
        let snapshot = collector.drain();
        assert_eq!(snapshot.spans.len(), 2);
        assert_eq!(snapshot.dropped, 3);
        assert_eq!(snapshot.pid, u64::from(std::process::id()));
        assert!(snapshot.epoch_unix_micros > 0);
        assert_eq!(snapshot.spans[0].arg("point"), Some("alexnet/int8"));
        // The ring is empty afterwards but the drop counter survives.
        let again = collector.drain();
        assert!(again.spans.is_empty());
        assert_eq!(again.dropped, 3);
        // The owned spans round-trip through the wire format.
        let json = serde_json::to_string(&snapshot).expect("serializes");
        let back: CollectorSnapshot = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, snapshot);
    }

    #[test]
    fn concurrent_threads_account_for_every_dropped_span() {
        let _guard = GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        const THREADS: u64 = 8;
        const SPANS_PER_THREAD: u64 = 100;
        const CAPACITY: usize = 32;
        let collector = Arc::new(TraceCollector::with_capacity(CAPACITY));
        install(Arc::clone(&collector));
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..SPANS_PER_THREAD {
                        let _s = span!("concurrent.drop");
                    }
                });
            }
        });
        uninstall();
        // Every push either lands in the ring or bumps the drop counter —
        // under one lock — so the accounting is exact, not approximate.
        let snapshot = collector.drain();
        assert_eq!(snapshot.spans.len(), CAPACITY);
        assert_eq!(snapshot.dropped, THREADS * SPANS_PER_THREAD - CAPACITY as u64);
    }

    #[test]
    fn concurrent_kernel_sampling_hits_the_exact_ratio() {
        let _guard = GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        const THREADS: u64 = 8;
        const EVENTS_PER_THREAD: u64 = 256;
        const SAMPLING: u64 = 16;
        let collector = Arc::new(TraceCollector::new().with_kernel_sampling(SAMPLING));
        install(Arc::clone(&collector));
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..EVENTS_PER_THREAD {
                        let _k = kernel_span("concurrent.kernel");
                    }
                });
            }
        });
        uninstall();
        // The sampling counter is one atomic fetch_add shared by every
        // thread, so exactly 1 in SAMPLING of the total fires regardless
        // of interleaving (total is a multiple of SAMPLING).
        assert_eq!(collector.drain().spans.len() as u64, THREADS * EVENTS_PER_THREAD / SAMPLING);
    }

    #[test]
    fn concurrent_nesting_invariants_hold_per_thread() {
        let _guard = GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        const THREADS: usize = 4;
        let collector = Arc::new(TraceCollector::new());
        install(Arc::clone(&collector));
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..10 {
                        let _outer = span!("nest.outer");
                        let _inner = span!("nest.inner");
                    }
                });
            }
        });
        uninstall();
        let events = collector.drain().spans;
        assert_eq!(events.len(), THREADS * 20);
        let threads: std::collections::BTreeSet<u64> = events.iter().map(|e| e.thread).collect();
        assert_eq!(threads.len(), THREADS);
        for &thread in &threads {
            let outers: Vec<_> =
                events.iter().filter(|e| e.thread == thread && e.name == "nest.outer").collect();
            let inners: Vec<_> =
                events.iter().filter(|e| e.thread == thread && e.name == "nest.inner").collect();
            assert_eq!(outers.len(), 10);
            assert_eq!(inners.len(), 10);
            // Depth never leaks across iterations or threads, and every
            // inner nests strictly inside an outer of its own thread.
            for outer in &outers {
                assert_eq!(outer.depth, 0);
            }
            for inner in &inners {
                assert_eq!(inner.depth, 1);
                assert!(outers.iter().any(|outer| {
                    inner.start_micros >= outer.start_micros
                        && inner.end_micros() <= outer.end_micros()
                }));
            }
        }
    }

    #[test]
    fn trace_sink_parses_the_flag_and_writes_json() {
        // `--trace-out` itself is read by the workspace's flag table; what
        // stays here is the sink it installs.
        let _guard = GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir = std::env::temp_dir().join(format!("dbpim-trace-sink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("trace.json");
        let sink = TraceSink::install(&path);
        assert_eq!(sink.path(), path);
        {
            let _s = span!("sink.test", point = 1);
        }
        sink.finish(Vec::new()).expect("writes");
        let text = std::fs::read_to_string(&path).expect("file exists");
        assert!(text.contains("\"sink.test\""), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn lane(spans: usize) -> ProcessLane {
        let span = TraceSpan {
            id: 1,
            name: "serve.request".to_string(),
            thread: 0,
            depth: 0,
            start_micros: 0,
            duration_micros: 1,
            args: Vec::new(),
        };
        ProcessLane { pid: 7, name: "dbpim-served".to_string(), spans: vec![span; spans] }
    }

    #[test]
    fn the_summary_line_counts_local_drops_with_or_without_remote_lanes() {
        let path = Path::new("t.json");
        assert_eq!(summary_line(5, 0, 5, &[], path), "trace: 5 spans -> t.json");
        // No flag sets the capacity or the sampling, so the note says what
        // the trace kept rather than how to keep more.
        assert_eq!(
            summary_line(5, 2, 5, &[], path),
            "trace: 5 spans -> t.json (2 older spans dropped; kept the newest 5 spans)"
        );
        let lanes = [lane(3), lane(4)];
        assert_eq!(
            summary_line(5, 0, 5, &lanes, path),
            "trace: 5 local + 7 remote spans across 3 processes -> t.json"
        );
        // The merged line used to leave out the spans the local ring dropped.
        assert_eq!(
            summary_line(5, 2, 5, &lanes, path),
            "trace: 5 local + 7 remote spans across 3 processes -> t.json (2 older local spans \
             dropped; kept the newest 5 local spans)"
        );
    }
}
