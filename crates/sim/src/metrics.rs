//! Dynamic superblock statistics — the two metrics of the paper's Figure 7.

/// Dynamically-weighted superblock statistics.
///
/// The paper's Figure 7 plots, per scheme: the average number of basic
/// blocks *executed* per dynamic superblock traversal (how far execution
/// gets before exiting — the gray bars) and the average *size* in blocks of
/// the traversed superblock (the white extensions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SbDynStats {
    /// Dynamic superblock traversals.
    pub traversals: u64,
    /// Total basic blocks executed across traversals.
    pub blocks_executed: u64,
    /// Total superblock sizes (in blocks) across traversals.
    pub size_blocks: u64,
}

impl SbDynStats {
    /// Average blocks executed per dynamic superblock (Figure 7 gray bar).
    pub fn avg_blocks_executed(&self) -> f64 {
        if self.traversals == 0 {
            0.0
        } else {
            self.blocks_executed as f64 / self.traversals as f64
        }
    }

    /// Average superblock size per dynamic traversal (Figure 7 white bar).
    pub fn avg_size(&self) -> f64 {
        if self.traversals == 0 {
            0.0
        } else {
            self.size_blocks as f64 / self.traversals as f64
        }
    }

    /// Fraction of each traversed superblock actually executed.
    pub fn completion_fraction(&self) -> f64 {
        if self.size_blocks == 0 {
            0.0
        } else {
            self.blocks_executed as f64 / self.size_blocks as f64
        }
    }

    /// Records one traversal that executed `executed` of `size` blocks.
    #[inline]
    pub fn record(&mut self, executed: u32, size: u32) {
        self.record_n(executed, size, 1);
    }

    /// Records `n` traversals that each executed `executed` of `size`
    /// blocks.
    #[inline]
    pub(crate) fn record_n(&mut self, executed: u32, size: u32, n: u64) {
        self.traversals += n;
        self.blocks_executed += n * u64::from(executed);
        self.size_blocks += n * u64::from(size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages() {
        let mut s = SbDynStats::default();
        s.record(2, 4);
        s.record(4, 4);
        assert_eq!(s.traversals, 2);
        assert!((s.avg_blocks_executed() - 3.0).abs() < 1e-9);
        assert!((s.avg_size() - 4.0).abs() < 1e-9);
        assert!((s.completion_fraction() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn empty_is_zero() {
        let s = SbDynStats::default();
        assert_eq!(s.avg_blocks_executed(), 0.0);
        assert_eq!(s.avg_size(), 0.0);
        assert_eq!(s.completion_fraction(), 0.0);
    }
}
