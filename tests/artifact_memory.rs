//! Resident bytes of a prepared model and of a loaded DSE report.
//!
//! A prepared model keeps what its points read: the FTA statistics, the
//! input-sparsity profile, both workload sets and its most recently
//! compiled geometry, beside the float model every variant of its kind
//! shares. The front end's output (the INT8 model and the FTA
//! approximation) is kept only until a fidelity report is cached, and not
//! at all when the configuration evaluates no fidelity. A loaded report
//! holds each model's summary, statistics, input sparsity and layer names
//! once, however many geometries it covers.
//!
//! This binary installs a counting global allocator (std only) that tracks
//! the live heap bytes and the allocations of each thread. Preparation,
//! compilation and fidelity all run on the calling thread, so the bytes a
//! test measures on its own thread are exact and the same on every run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

use db_pim::prelude::*;
use dbpim_sim::LayerReport;

/// A [`System`] allocator that counts per thread.
struct Counting;

thread_local! {
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn record(bytes: isize, allocations: usize) {
    // `try_with` fails only while the thread's locals are being torn down.
    let _ = LIVE_BYTES.try_with(|live| live.set(live.get() + bytes));
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + allocations));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract, and only counts what `System`
// returned; counting allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` meets `alloc`'s requirements.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            record(layout.size() as isize, 1);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            record(layout.size() as isize, 1);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator, that is
        // `System`, returned for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        record(-(layout.size() as isize), 0);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller's `new_size` meets
        // `realloc`'s requirements.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            record(new_size as isize - layout.size() as isize, 1);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// The most a prepared quarter-width zoo model may keep beyond its float
/// model, one compiled geometry included. The front end's output alone is
/// 2–12 MB per model, so a model that kept it could not pass.
const KEPT_BOUND: isize = 1 << 20;

/// The quarter-width zoo at one calibration image, as the fleet's daemons
/// prepare it.
fn quarter_width(evaluation_images: usize) -> PipelineConfig {
    PipelineConfig { calibration_images: 1, evaluation_images, ..PipelineConfig::fast() }
}

/// Prepares `kind` in `session` and compiles its configured geometry, then
/// runs `then` on the prepared model. Returns the live bytes this added to
/// the thread beyond the float model, with the prepared model still held.
fn kept_bytes(session: &SimSession, kind: ModelKind, then: impl FnOnce(&ModelArtifacts)) -> isize {
    session.model(kind).expect("the float model builds");
    let before = live_bytes();
    let artifacts = session.artifacts(kind).expect("the model prepares");
    artifacts.programs(session.config().arch).expect("the geometry compiles");
    then(&artifacts);
    live_bytes() - before
}

fn check_every_model(config: PipelineConfig, then: impl Fn(&ModelArtifacts)) {
    let mut over = Vec::new();
    for kind in ModelKind::all() {
        let session = SimSession::new(config).expect("valid config");
        let kept = kept_bytes(&session, kind, &then);
        if kept >= KEPT_BOUND {
            over.push(format!("{kind}: {kept} B"));
        }
    }
    assert!(
        over.is_empty(),
        "prepared models keep {KEPT_BOUND} B or more beyond the float model: {}",
        over.join(", ")
    );
}

/// Without fidelity, preparation drops the front end's output before it
/// returns.
#[test]
fn a_prepared_model_without_fidelity_keeps_no_front_end() {
    check_every_model(quarter_width(0), |_| {});
}

/// With fidelity, the front end's output goes once the report is cached,
/// and a second request answers from the cache without allocating.
#[test]
fn a_cached_fidelity_report_releases_the_front_end() {
    check_every_model(quarter_width(1), |artifacts| {
        let report = artifacts.fidelity().expect("fidelity evaluates");
        let before = allocations();
        assert_eq!(artifacts.fidelity().expect("the cached report"), report);
        assert_eq!(allocations(), before, "a second fidelity request evaluated again");
    });
}

/// What one point of a report must hold of its own: its runs' per-layer
/// numbers, the runs, and the model name each run, the result and its
/// statistics carry.
fn own_bytes(entry: &DseEntry) -> isize {
    let runs = &entry.result.runs;
    let layers: usize = runs.iter().map(|run| run.layers.len() * size_of::<LayerReport>()).sum();
    let names = (runs.len() + 2) * entry.result.model_name.len();
    (layers + runs.len() * size_of::<RunReport>() + names) as isize
}

/// A journal of one quarter-width model at four geometries loads with the
/// model's data held once: each entry after the first adds no more than
/// its own numbers. Journals holding 1 to 4 of the entries are loaded in
/// turn, so each difference is one entry's share.
#[test]
fn a_loaded_journal_holds_each_models_data_once() {
    let grid =
        ArchGrid::around(ArchConfig::paper()).with_macros(vec![2, 4]).with_rows(vec![32, 64]);
    let spec = DseSpec::new(grid, vec![ModelKind::AlexNet]);
    let driver = DseDriver::new(quarter_width(0)).expect("valid config").with_threads(1);
    let report = driver.run(&spec).expect("the grid runs");
    assert_eq!(report.entries.len(), 4);

    let dir = std::env::temp_dir().join(format!("dbpim-artifact-memory-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut kept = Vec::new();
    for count in 1..=report.entries.len() {
        let path = dir.join(format!("journal-{count}.json"));
        let prefix = DseReport { entries: report.entries[..count].to_vec(), ..report.clone() };
        DseJournal::create(&path, &prefix).expect("the journal writes");
        let before = live_bytes();
        let (loaded, torn) = DseReport::load_journal(&path).expect("the journal loads");
        kept.push(live_bytes() - before);
        assert_eq!((loaded.entries.len(), torn), (count, None));
        assert!(loaded.results_match(&prefix), "journal of {count} entries");
    }
    let _ = std::fs::remove_dir_all(&dir);
    for (index, entry) in report.entries.iter().enumerate().skip(1) {
        let (added, own) = (kept[index] - kept[index - 1], own_bytes(entry));
        assert!(added <= own, "entry {index} added {added} B, beyond its own {own} B: {kept:?}");
    }
}
