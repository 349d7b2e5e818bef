//! Minimal data-parallel map over scoped std threads, and the
//! poison-tolerant lock helpers every long-lived cache uses.
//!
//! The offline build environment cannot fetch `rayon`, so the batch runner
//! uses this self-contained equivalent: a fixed worker pool over
//! `std::thread::scope` pulling work items from a shared atomic cursor
//! (work-stealing by index). Results land in per-item slots, so
//! output order matches input order regardless of scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Locks a mutex, recovering the guard from a poisoned lock and clearing
/// the poison.
///
/// Every critical section guarded this way leaves its state consistent at
/// all exit points — a cache slot is only ever *set* after its value was
/// built successfully — so a thread that panicked while holding the lock
/// must not cascade that panic into every later user.
pub fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| {
        mutex.clear_poison();
        poisoned.into_inner()
    })
}

/// The default worker count: one per available hardware thread.
#[must_use]
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Applies `f` to every item on up to `threads` worker threads, preserving
/// input order in the output.
///
/// Falls back to a plain sequential map for a single item or a single
/// worker. A panic inside `f` propagates to the caller when the scope joins.
pub fn par_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let count = items.len();
    if count <= 1 || threads <= 1 {
        return items.into_iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    // Per-item (input, output) cells; a worker takes the input and later
    // stores the result, so every slot is written exactly once.
    type Slot<T, R> = (Mutex<Option<T>>, Mutex<Option<R>>);
    let slots: Vec<Slot<T, R>> =
        items.into_iter().map(|item| (Mutex::new(Some(item)), Mutex::new(None))).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads.min(count) {
            scope.spawn(|| loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                if index >= count {
                    break;
                }
                let (input, output) = &slots[index];
                let item = input.lock().expect("no poisoned input slots").take();
                if let Some(item) = item {
                    *output.lock().expect("no poisoned output slots") = Some(f(item));
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|(_, output)| {
            output
                .into_inner()
                .expect("no poisoned output slots")
                .expect("every slot visited exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let doubled = par_map((0..256).collect(), 8, |x: i32| x * 2);
        assert_eq!(doubled, (0..256).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_fallbacks_match() {
        let single_thread = par_map(vec![1, 2, 3], 1, |x: i32| x + 1);
        let single_item = par_map(vec![7], 8, |x: i32| x + 1);
        assert_eq!(single_thread, vec![2, 3, 4]);
        assert_eq!(single_item, vec![8]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<i32> = par_map(Vec::<i32>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn parallelism_default_is_positive() {
        assert!(default_parallelism() >= 1);
    }
}
