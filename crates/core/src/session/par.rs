//! The default worker count, and the poison-tolerant lock helper shared by
//! the session cache, the DSE journal and the point-set driver. Point sets
//! run on scoped std threads claiming from one
//! [`PointQueue`](crate::dse::PointQueue) (see
//! [`DseDriver::run_on`](crate::DseDriver::run_on)).

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_default_is_positive() {
        assert!(default_parallelism() >= 1);
    }
}
