//! Generation-stamped atomic publication slots for the compiled units
//! [`crate::pgo`] hot-swaps.
//!
//! A [`SwapSlot`] holds the currently-serving value behind an `Arc` plus a
//! monotonically increasing generation stamp. Readers ([`SwapSlot::load`])
//! get a consistent `(generation, value)` pair and keep serving from their
//! clone even while a swap lands. Writers use [`SwapSlot::swap_if`] as a
//! compare-and-swap on the generation they observed when they *started*
//! recompiling, so a slow background recompile can never clobber a newer
//! unit that was published while it ran — the stale publish is rejected and
//! the caller rolls back instead.
//!
//! The slot is deliberately all-or-nothing: the only mutation is a single
//! pointer+stamp replacement under one lock, so a drain or crash can never
//! observe a half-swapped state.

use std::sync::{Arc, Mutex};

/// A generation-stamped single-value publication slot.
#[derive(Debug)]
pub struct SwapSlot<T> {
    inner: Mutex<Inner<T>>,
}

#[derive(Debug)]
struct Inner<T> {
    generation: u64,
    value: Arc<T>,
    swaps: u64,
    rejected: u64,
}

/// Outcome of a conditional swap attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapOutcome {
    /// The expected generation matched; the new value is now serving and
    /// carries the returned generation.
    Swapped(u64),
    /// Another writer published first; the slot is unchanged and still
    /// carries the returned (newer) generation.
    Stale(u64),
}

impl SwapOutcome {
    /// True when the swap landed.
    pub fn swapped(&self) -> bool {
        matches!(self, SwapOutcome::Swapped(_))
    }
}

impl<T> SwapSlot<T> {
    /// Creates a slot serving `value` at generation 1.
    pub fn new(value: T) -> Self {
        SwapSlot {
            inner: Mutex::new(Inner {
                generation: 1,
                value: Arc::new(value),
                swaps: 0,
                rejected: 0,
            }),
        }
    }

    /// Returns the current `(generation, value)` pair. The clone stays
    /// valid (and serving-safe) even if a swap lands immediately after.
    pub fn load(&self) -> (u64, Arc<T>) {
        let inner = self.inner.lock().unwrap();
        (inner.generation, Arc::clone(&inner.value))
    }

    /// Unconditionally publishes `value`, bumping the generation. Returns
    /// the new generation.
    pub fn swap(&self, value: T) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        inner.generation += 1;
        inner.value = Arc::new(value);
        inner.swaps += 1;
        inner.generation
    }

    /// Publishes `value` only if the slot still carries `expected_gen` —
    /// i.e. nothing else was published since the caller loaded it.
    pub fn swap_if(&self, expected_gen: u64, value: T) -> SwapOutcome {
        let mut inner = self.inner.lock().unwrap();
        if inner.generation != expected_gen {
            inner.rejected += 1;
            return SwapOutcome::Stale(inner.generation);
        }
        inner.generation += 1;
        inner.value = Arc::new(value);
        inner.swaps += 1;
        SwapOutcome::Swapped(inner.generation)
    }

    /// Lifetime counters: `(successful swaps, rejected stale attempts)`.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock().unwrap();
        (inner.swaps, inner.rejected)
    }

    /// Current generation without cloning the value.
    pub fn generation(&self) -> u64 {
        self.inner.lock().unwrap().generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn load_swap_load() {
        let slot = SwapSlot::new(10);
        let (g1, v1) = slot.load();
        assert_eq!((g1, *v1), (1, 10));
        let g2 = slot.swap(20);
        assert_eq!(g2, 2);
        let (g3, v3) = slot.load();
        assert_eq!((g3, *v3), (2, 20));
        assert_eq!(*v1, 10, "old readers keep their value");
    }

    #[test]
    fn stale_swap_is_rejected_and_counted() {
        let slot = SwapSlot::new(0);
        let (observed, _) = slot.load();
        slot.swap(1); // someone else publishes first
        let outcome = slot.swap_if(observed, 99);
        assert_eq!(outcome, SwapOutcome::Stale(2));
        assert!(!outcome.swapped());
        let (_, value) = slot.load();
        assert_eq!(*value, 1, "stale publish must not clobber");
        assert_eq!(slot.stats(), (1, 1));
    }

    #[test]
    fn matching_swap_if_lands() {
        let slot = SwapSlot::new(0);
        let (observed, _) = slot.load();
        assert_eq!(slot.swap_if(observed, 5), SwapOutcome::Swapped(2));
        assert_eq!(*slot.load().1, 5);
    }

    #[test]
    fn concurrent_cas_admits_exactly_one_writer_per_generation() {
        let slot = Arc::new(SwapSlot::new(0usize));
        let threads = 8;
        let landed: usize = thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|i| {
                    let slot = Arc::clone(&slot);
                    scope.spawn(move || {
                        let (gen, _) = slot.load();
                        usize::from(slot.swap_if(gen, i + 1).swapped())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        let (swaps, rejected) = slot.stats();
        assert_eq!(swaps as usize, landed);
        assert_eq!(swaps as usize + rejected as usize, threads);
        assert!(landed >= 1, "at least the first CAS must land");
        assert_eq!(slot.generation(), 1 + swaps);
    }
}
