//! Zero-dependency scoped-thread work pool for the experiment engine.
//!
//! The engine fans benchmark × scheme cells out across worker threads
//! with [`run_indexed`]: workers claim indices through one atomic counter
//! and write results into per-index slots, so the returned vector is
//! always in input order no matter which worker ran which cell.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The machine's available parallelism (the `--jobs` default); 1 when the
/// runtime cannot tell.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `work(i)` for every `i in 0..n` across up to `jobs` scoped worker
/// threads and returns the results in index order.
///
/// `jobs` is clamped to `[1, n]`; with `jobs == 1` the work runs inline on
/// the calling thread (no pool, no locks). Worker panics propagate to the
/// caller when the scope joins.
pub fn run_indexed<T, F>(jobs: usize, n: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.max(1).min(n.max(1));
    if jobs == 1 {
        return (0..n).map(work).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = work(i);
                *slots[i].lock().unwrap() = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("worker filled slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for jobs in [1, 2, 7, 64] {
            let out = run_indexed(jobs, 40, |i| {
                // Stagger completion so claim order differs from finish order.
                std::thread::sleep(std::time::Duration::from_micros((40 - i as u64) * 10));
                i * i
            });
            assert_eq!(out, (0..40).map(|i| i * i).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn zero_items_and_zero_jobs_are_fine() {
        assert!(run_indexed(0, 0, |i| i).is_empty());
        assert_eq!(run_indexed(0, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn actually_runs_concurrently() {
        use std::sync::atomic::AtomicUsize;
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        run_indexed(4, 16, |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(5));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) > 1, "no overlap observed");
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
