//! The job queue of the daemon's worker pool: a bounded multi-producer
//! multi-consumer queue.
//!
//! [`crate::server`] feeds its long-lived worker team through a
//! [`BoundedQueue`]: producers `try_push` and get an immediate `Full` back
//! when the service is saturated (the daemon turns that into a `Busy`
//! reply), consumers block on `pop`, and `close` lets consumers drain
//! everything already accepted before they exit — the graceful-shutdown
//! contract.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a [`BoundedQueue::try_push`] did not enqueue.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the item is handed back so the caller can
    /// reject it upstream (backpressure).
    Full(T),
    /// The queue was closed; no further items are accepted.
    Closed(T),
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue built on
/// `Mutex` + `Condvar` only.
///
/// Unlike `std::sync::mpsc::sync_channel`, rejection is explicit
/// ([`PushError::Full`] hands the item back immediately, never blocking the
/// producer) and closing is cooperative: after [`close`](Self::close),
/// [`pop`](Self::pop) keeps returning items until the queue is empty, then
/// returns `None` — so a draining shutdown never drops accepted work.
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (min 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState { items: VecDeque::new(), closed: false }),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued (a racy snapshot, for metrics).
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().items.len()
    }

    /// True when no items are queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues without blocking.
    ///
    /// # Errors
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`close`](Self::close); both return the item.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut state = self.state.lock().unwrap();
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        state.items.push_back(item);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until an item is available or the queue is closed *and*
    /// drained; `None` means no item will ever come again.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).unwrap();
        }
    }

    /// Stops accepting new items. Consumers drain what was already
    /// accepted, then their `pop` calls return `None`.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_rejects_when_full_and_drains_on_close() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.len(), 2);
        q.close();
        assert_eq!(q.try_push(4), Err(PushError::Closed(4)));
        // Accepted work survives the close.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn queue_hands_items_across_threads() {
        let q = BoundedQueue::new(8);
        let total: usize = std::thread::scope(|scope| {
            let consumers: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|| {
                        let mut sum = 0usize;
                        while let Some(v) = q.pop() {
                            sum += v;
                        }
                        sum
                    })
                })
                .collect();
            for v in 1..=100usize {
                loop {
                    match q.try_push(v) {
                        Ok(()) => break,
                        Err(PushError::Full(_)) => std::thread::yield_now(),
                        Err(PushError::Closed(_)) => unreachable!(),
                    }
                }
            }
            q.close();
            consumers.into_iter().map(|c| c.join().unwrap()).sum()
        });
        assert_eq!(total, 5050);
    }
}
