//! Resident bytes of a prepared model.
//!
//! A prepared model keeps what its points read: the FTA statistics, the
//! input-sparsity profile, both workload sets and its most recently
//! compiled geometry, beside the float model every variant of its kind
//! shares. The front end's output (the INT8 model and the FTA
//! approximation) is kept only until a fidelity report is cached, and not
//! at all when the configuration evaluates no fidelity.
//!
//! This binary installs a counting global allocator (std only) that tracks
//! the live heap bytes and the allocations of each thread. Preparation,
//! compilation and fidelity all run on the calling thread, so the bytes a
//! test measures on its own thread are exact and the same on every run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use db_pim::prelude::*;

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
