//! Rolling time-windowed metrics: a ring of short [`MetricsRegistry`]
//! windows so rates and latency quantiles reflect the *recent past*
//! instead of the process lifetime.
//!
//! The serving daemon records every request into both its cumulative
//! registry (for Prometheus-style scraping, where the scraper differences
//! counters itself) and a [`WindowedRegistry`] (for the `/health` endpoint
//! and `pps-client top`, which want "last N seconds" numbers directly).
//!
//! Time comes from an injected [`Clock`] so tests can drive rotation
//! deterministically; merge semantics are those of
//! [`MetricsRegistry::merge`] — windows are folded oldest-first, so a
//! snapshot is a deterministic function of (clock, recorded samples).

use crate::metrics::{Histogram, MetricKey, MetricsRegistry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Milliseconds since an epoch fixed at construction. Implementations
/// must be monotone.
pub trait Clock: Send + Sync {
    /// Current time in milliseconds.
    fn now_ms(&self) -> u64;
}

impl<C: Clock + ?Sized> Clock for std::sync::Arc<C> {
    fn now_ms(&self) -> u64 {
        (**self).now_ms()
    }
}

impl<C: Clock + ?Sized> Clock for Box<C> {
    fn now_ms(&self) -> u64 {
        (**self).now_ms()
    }
}

/// The production clock: wall time since construction.
#[derive(Debug)]
pub struct SystemClock {
    t0: Instant,
}

impl SystemClock {
    /// A clock anchored at "now".
    pub fn new() -> Self {
        SystemClock { t0: Instant::now() }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now_ms(&self) -> u64 {
        self.t0.elapsed().as_millis() as u64
    }
}

/// A hand-driven clock for deterministic tests.
#[derive(Debug, Default)]
pub struct ManualClock {
    ms: AtomicU64,
}

impl ManualClock {
    /// A clock starting at 0 ms.
    pub fn new() -> Self {
        ManualClock { ms: AtomicU64::new(0) }
    }

    /// Advances the clock by `ms` milliseconds.
    pub fn advance(&self, ms: u64) {
        self.ms.fetch_add(ms, Ordering::SeqCst);
    }

    /// Sets the clock to an absolute time.
    pub fn set(&self, ms: u64) {
        self.ms.store(ms, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_ms(&self) -> u64 {
        self.ms.load(Ordering::SeqCst)
    }
}

struct Slot {
    /// Which window period this slot currently holds (`now_ms / width`).
    epoch: u64,
    reg: MetricsRegistry,
}

/// A fixed ring of `windows` × `width_ms` metric windows (default 8×1 s).
/// Recording goes into the current window; reading merges every window
/// still inside the horizon, oldest first.
pub struct WindowedRegistry<C: Clock> {
    width_ms: u64,
    clock: C,
    slots: Mutex<Vec<Slot>>,
}

impl<C: Clock> WindowedRegistry<C> {
    /// A ring of `windows` windows of `width_ms` each, read off `clock`.
    pub fn new(windows: usize, width_ms: u64, clock: C) -> Self {
        let windows = windows.max(1);
        let width_ms = width_ms.max(1);
        let slots = (0..windows)
            .map(|_| Slot { epoch: u64::MAX, reg: MetricsRegistry::default() })
            .collect();
        WindowedRegistry { width_ms, clock, slots: Mutex::new(slots) }
    }

    /// Adds `delta` to a counter in the current window.
    pub fn add(&self, key: MetricKey, delta: u64) {
        self.with_current(|reg| reg.add(key, delta));
    }

    /// Records one histogram sample in the current window.
    pub fn record(&self, key: MetricKey, value: f64) {
        self.with_current(|reg| reg.record(key, value));
    }

    fn with_current(&self, f: impl FnOnce(&mut MetricsRegistry)) {
        let epoch = self.clock.now_ms() / self.width_ms;
        let mut slots = self.slots.lock().unwrap();
        let n = slots.len();
        let slot = &mut slots[(epoch % n as u64) as usize];
        if slot.epoch != epoch {
            // The ring wrapped: this slot's window has aged out.
            slot.reg = MetricsRegistry::default();
            slot.epoch = epoch;
        }
        f(&mut slot.reg);
    }

    /// Merges every window still inside the horizon (oldest first — the
    /// deterministic order) into one registry, and returns it together
    /// with the span of wall time it covers, in seconds. The span counts
    /// whole windows from the oldest live one through the current,
    /// *partial* window's elapsed fraction, so rates computed as
    /// `count / seconds` are not deflated right after a rotation.
    pub fn snapshot(&self) -> (MetricsRegistry, f64) {
        let now = self.clock.now_ms();
        let epoch = now / self.width_ms;
        let slots = self.slots.lock().unwrap();
        let n = slots.len() as u64;
        let oldest_live = epoch.saturating_sub(n - 1);
        let mut merged = MetricsRegistry::default();
        let mut oldest_seen = epoch;
        // Oldest epoch first: iterate epochs, not slot indices.
        for e in oldest_live..=epoch {
            let slot = &slots[(e % n) as usize];
            if slot.epoch == e && !slot.reg.is_empty() {
                merged.merge(&slot.reg);
                oldest_seen = oldest_seen.min(e);
            }
        }
        let full_windows = epoch - oldest_seen; // complete windows behind the current one
        let partial_ms = now - epoch * self.width_ms;
        let covered_ms = full_windows * self.width_ms + partial_ms.max(1);
        (merged, covered_ms as f64 / 1e3)
    }

    /// Rate of counter `name` (all label combinations) over the covered
    /// window span, per second.
    pub fn rate(&self, name: &str) -> f64 {
        let (reg, seconds) = self.snapshot();
        reg.counter_total(name) as f64 / seconds.max(1e-9)
    }

    /// The merged histogram for `name` across live windows (summed over
    /// label combinations), if any samples are present.
    pub fn histogram_total(&self, name: &str) -> Option<Histogram> {
        let (reg, _) = self.snapshot();
        let mut acc: Option<Histogram> = None;
        for (key, h) in reg.histograms() {
            if key.name == name {
                acc.get_or_insert_with(Histogram::default).merge(h);
            }
        }
        acc.filter(|h| h.count > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn key(name: &str) -> MetricKey {
        MetricKey::new(name, &[])
    }

    #[test]
    fn current_window_accumulates() {
        let w = WindowedRegistry::new(8, 1000, ManualClock::new());
        w.add(key("req"), 3);
        w.add(key("req"), 2);
        w.record(key("lat"), 5.0);
        let (reg, seconds) = w.snapshot();
        assert_eq!(reg.counter_total("req"), 5);
        assert_eq!(reg.histograms().next().unwrap().1.count, 1);
        assert!(seconds > 0.0 && seconds <= 1.0, "partial window: {seconds}");
    }

    #[test]
    fn old_windows_age_out_of_the_horizon() {
        let clock = Arc::new(ManualClock::new());
        let w = WindowedRegistry::new(4, 1000, Arc::clone(&clock));
        w.add(key("req"), 10);
        clock.advance(2000);
        w.add(key("req"), 1);
        let (reg, _) = w.snapshot();
        assert_eq!(reg.counter_total("req"), 11, "both windows inside the horizon");
        // Jump past the horizon: only the new window's data survives.
        clock.advance(4000);
        w.add(key("req"), 7);
        let (reg, _) = w.snapshot();
        assert_eq!(reg.counter_total("req"), 7, "aged windows must not leak");
        // And a snapshot long after any write is empty again.
        clock.advance(60_000);
        let (reg, _) = w.snapshot();
        assert_eq!(reg.counter_total("req"), 0);
    }

    #[test]
    fn ring_reuses_slots_without_mixing_epochs() {
        let clock = ManualClock::new();
        let w = WindowedRegistry::new(2, 100, clock);
        w.add(key("req"), 1); // epoch 0, slot 0
        w.clock.advance(100); // epoch 1, slot 1
        w.add(key("req"), 1);
        w.clock.advance(100); // epoch 2 reuses slot 0 — old epoch-0 data must clear
        w.add(key("req"), 1);
        let (reg, _) = w.snapshot();
        assert_eq!(reg.counter_total("req"), 2, "epoch 0 was overwritten, 1+2 remain");
    }

    #[test]
    fn rates_and_quantiles_reflect_the_window() {
        let clock = ManualClock::new();
        let w = WindowedRegistry::new(8, 1000, clock);
        w.clock.set(500);
        for i in 0..100 {
            w.add(key("req"), 1);
            w.record(key("lat"), (i + 1) as f64);
        }
        // 100 events over 0.5 s of covered time → 200/s.
        assert!((w.rate("req") - 200.0).abs() < 1.0, "rate {}", w.rate("req"));
        let h = w.histogram_total("lat").unwrap();
        assert_eq!(h.count, 100);
        assert!(h.quantile(0.5) > 30.0 && h.quantile(0.5) < 70.0);
        assert!(w.histogram_total("missing").is_none());
    }

    #[test]
    fn snapshot_is_deterministic_under_fixed_clock() {
        let build = || {
            let w = WindowedRegistry::new(8, 1000, ManualClock::new());
            for i in 0..50u64 {
                w.clock.set(i * 100);
                w.add(MetricKey::new("req", &[("slot", "a")]), i);
                w.record(key("lat"), i as f64);
            }
            w.clock.set(5000);
            let (reg, s) = w.snapshot();
            (reg.to_json(), s)
        };
        assert_eq!(build(), build(), "same clock script, same snapshot bytes");
    }
}
