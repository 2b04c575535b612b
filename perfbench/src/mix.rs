//! Seeded operation sequences.
//!
//! A workload's operations come in cycles. Each cycle holds every operation
//! type a fixed number of times (its weight) in an order drawn from the
//! seed. Complete cycles therefore always have the same composition, so
//! two seeds measure the same mix in different orders, and the spread
//! between runs is not sampling noise in the mix.

use pps_ir::hash::splitmix64;

/// splitmix64 stream: the same seed gives the same numbers on every host.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let x = splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x
    }

    /// Uniform in `0..n` (`n > 0`), by rejection so no value is favoured.
    pub fn below(&mut self, n: usize) -> usize {
        let n = n as u64;
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let x = self.next_u64();
            if x < zone {
                return (x % n) as usize;
            }
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// How often each operation type occurs in one cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mix {
    weights: Vec<usize>,
}

impl Mix {
    /// Every one of `n` types once per cycle.
    pub fn uniform(n: usize) -> Self {
        Mix {
            weights: vec![1; n],
        }
    }

    /// Triangular skew over `n` types ranked hottest first: the ranks are
    /// cut into `tiers` equal tiers, and tier `t` (0 = hottest) occurs
    /// `tiers - t` times per cycle.
    pub fn triangular(n: usize, tiers: usize) -> Self {
        Mix {
            weights: (0..n).map(|r| tiers - r * tiers / n).collect(),
        }
    }

    /// Operations per cycle.
    pub fn cycle_len(&self) -> usize {
        self.weights.iter().sum()
    }

    /// One cycle of type indices in seeded order.
    pub fn cycle(&self, rng: &mut Rng) -> Vec<usize> {
        let mut ops: Vec<usize> = self
            .weights
            .iter()
            .enumerate()
            .flat_map(|(i, &w)| std::iter::repeat_n(i, w))
            .collect();
        rng.shuffle(&mut ops);
        ops
    }
}
