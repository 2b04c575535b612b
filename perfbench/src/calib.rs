//! Host-speed calibration.
//!
//! The CPU speed a run sees drifts by a third or more over seconds to
//! minutes on a shared host, and the drift moves every time of a run
//! together. Runs
//! therefore time a fixed kernel next to their work and report end-to-end
//! times in reference milliseconds: a measured time x [`REF_KERNEL_MS`] /
//! the kernel time measured at that moment. The kernel is the benchmark's
//! own code, so no change to the repository moves it.

use pps_ir::hash::splitmix64;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The kernel time that defines a reference millisecond.
pub const REF_KERNEL_MS: f64 = 1.0;
/// Kernel iterations: about one millisecond on the reference host.
const ITERATIONS: usize = 120_000;
/// Words of the kernel's table (64 KiB, cache-resident like the suite's
/// hot data).
const TABLE: usize = 8192;

/// Times one run of the kernel: data-dependent loads, stores and branches
/// over a small table, the interpreter's mix.
pub fn kernel_ms() -> f64 {
    let mut table = vec![0u64; TABLE];
    let mut x = 1u64;
    for v in table.iter_mut() {
        x = splitmix64(x);
        *v = x;
    }
    let t = Instant::now();
    let mut acc = 0u64;
    for _ in 0..ITERATIONS {
        x = splitmix64(x);
        let j = (x as usize) & (TABLE - 1);
        if x & 2 == 0 {
            acc = acc.wrapping_add(table[j]);
        } else {
            table[j] ^= acc;
        }
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// Reference milliseconds per measured millisecond, given a kernel time.
pub fn scale(kernel_ms: f64) -> f64 {
    REF_KERNEL_MS / kernel_ms
}

/// Kernel samples taken on a thread of their own, for work that runs in
/// another process.
#[derive(Debug, Default)]
pub struct Sampler {
    samples: Mutex<Vec<(Instant, f64)>>,
}

impl Sampler {
    /// Samples every `period` until `stop` is set.
    pub fn run(&self, stop: &AtomicBool, period: Duration) {
        while !stop.load(Ordering::Relaxed) {
            let at = Instant::now();
            let ms = kernel_ms();
            self.samples.lock().expect("sampler lock").push((at, ms));
            std::thread::sleep(period);
        }
    }

    /// [`scale`] over `[from, to]`: from the median of the samples taken
    /// then, or the sample nearest to the interval when none was.
    ///
    /// # Errors
    /// No sample was taken at all.
    pub fn scale_over(&self, from: Instant, to: Instant) -> Result<f64, String> {
        let samples = self.samples.lock().expect("sampler lock");
        let inside: Vec<f64> = samples
            .iter()
            .filter(|(at, _)| (from..=to).contains(at))
            .map(|s| s.1)
            .collect();
        let kernel = match crate::stats::median(&inside) {
            Some(m) => m,
            None => {
                let gap = |at: Instant| {
                    if at < from {
                        from - at
                    } else {
                        at.saturating_duration_since(to)
                    }
                };
                samples
                    .iter()
                    .min_by_key(|(at, _)| gap(*at))
                    .ok_or("no calibration samples")?
                    .1
            }
        };
        Ok(scale(kernel))
    }
}
