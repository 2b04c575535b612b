//! Formation configuration and the named schemes of the paper's evaluation.

/// A formation scheme, matching the configurations compared in Figures 4–7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// No formation: every basic block is its own superblock (the Table 1
    /// baseline).
    BasicBlock,
    /// Edge-profile formation: mutual-most-likely selection + classical
    /// enlargement (branch target expansion, loop peeling, loop unrolling)
    /// with the given unroll factor. `M4` and `M16` in the paper.
    Edge {
        /// Unroll factor (4 or 16 in the paper).
        unroll: u32,
    },
    /// Path-profile formation: most-likely-path-successor selection +
    /// unified path-based enlargement with the given superblock-loop-head
    /// budget. `restrained` selects the paper's "P4e" variant, which stops
    /// enlarging non-loop superblocks at the first superblock head to limit
    /// code expansion.
    Path {
        /// Superblock-loop-head budget (4 in the paper's P4/P4e).
        unroll: u32,
        /// True for the P4e variant.
        restrained: bool,
    },
    /// k-iteration Ball–Larus path formation (`Pk2`/`Pk3`): formation runs
    /// the path-based selector and enlarger over a profile derived from
    /// k-iteration chopped paths (arXiv:1304.5197). Cross-iteration
    /// extensions are supported only where a recorded k-iteration span
    /// witnessed them, so unroll-and-form follows the dominant k-iteration
    /// path of hot self-loops and stops at the profile's fidelity horizon.
    KPath {
        /// Back-edge crossings per profiled path (2 or 3 here).
        k: u32,
        /// Superblock-loop-head budget (as in P4).
        unroll: u32,
    },
    /// Interprocedural path formation (`Px4`): the hot callees along
    /// dominant paths are inlined first (behind the strict guard with
    /// per-caller rollback), profiles are re-trained on the inlined
    /// program, and path-based formation then runs *through* the former
    /// call sites with the given superblock-loop-head budget.
    Inter {
        /// Superblock-loop-head budget (as in P4).
        unroll: u32,
    },
}

impl Scheme {
    /// The paper's `M4` baseline scheme.
    pub const M4: Scheme = Scheme::Edge { unroll: 4 };
    /// The paper's `M16` aggressive-unrolling scheme.
    pub const M16: Scheme = Scheme::Edge { unroll: 16 };
    /// The paper's `P4` scheme.
    pub const P4: Scheme = Scheme::Path { unroll: 4, restrained: false };
    /// The paper's `P4e` scheme.
    pub const P4E: Scheme = Scheme::Path { unroll: 4, restrained: true };
    /// The 2-iteration Ball–Larus scheme.
    pub const PK2: Scheme = Scheme::KPath { k: 2, unroll: 4 };
    /// The 3-iteration Ball–Larus scheme.
    pub const PK3: Scheme = Scheme::KPath { k: 3, unroll: 4 };
    /// The interprocedural (inline-then-form) scheme.
    pub const PX4: Scheme = Scheme::Inter { unroll: 4 };

    /// Every named scheme of the extended family, in figure order. The
    /// scheme-name round-trip test enumerates this.
    pub const FAMILY: [Scheme; 8] = [
        Scheme::BasicBlock,
        Scheme::M4,
        Scheme::M16,
        Scheme::P4,
        Scheme::P4E,
        Scheme::PK2,
        Scheme::PK3,
        Scheme::PX4,
    ];

    /// Short display name as used in the paper's figures.
    pub fn name(&self) -> String {
        match self {
            Scheme::BasicBlock => "BB".to_string(),
            Scheme::Edge { unroll } => format!("M{unroll}"),
            Scheme::Path { unroll, restrained: false } => format!("P{unroll}"),
            Scheme::Path { unroll, restrained: true } => format!("P{unroll}e"),
            Scheme::KPath { k, .. } => format!("Pk{k}"),
            Scheme::Inter { unroll } => format!("Px{unroll}"),
        }
    }

    /// Parses a scheme name, accepting any capitalization (`pk2`, `PK2` and
    /// `Pk2` are the same scheme). [`Scheme::name`] is the canonical
    /// spelling: every consumer that keys on scheme identity (reply cache,
    /// artifact keys, PGO units) must go through `parse(..).name()` so
    /// spelling variants cannot split cache entries.
    pub fn parse(name: &str) -> Option<Scheme> {
        let up = name.to_ascii_uppercase();
        if up == "BB" {
            return Some(Scheme::BasicBlock);
        }
        if let Some(n) = up.strip_prefix("PK") {
            let k: u32 = n.parse().ok()?;
            return (2..=3).contains(&k).then_some(Scheme::KPath { k, unroll: 4 });
        }
        if let Some(n) = up.strip_prefix("PX") {
            let unroll: u32 = n.parse().ok()?;
            return (unroll == 4).then_some(Scheme::Inter { unroll });
        }
        if let Some(n) = up.strip_prefix('M') {
            let unroll: u32 = n.parse().ok()?;
            return (unroll >= 1).then_some(Scheme::Edge { unroll });
        }
        if let Some(n) = up.strip_prefix('P') {
            let (n, restrained) = match n.strip_suffix('E') {
                Some(n) => (n, true),
                None => (n, false),
            };
            let unroll: u32 = n.parse().ok()?;
            return (unroll >= 1).then_some(Scheme::Path { unroll, restrained });
        }
        None
    }

    /// True when this scheme reads a training profile at all: every scheme
    /// but `BB`, whose basic-block schedule is the same whatever ran.
    pub fn needs_profile(&self) -> bool {
        !matches!(self, Scheme::BasicBlock)
    }

    /// True when this scheme consumes a path profile (for the `Pk*` and
    /// `Px*` schemes, one derived from the k-iteration / post-inline
    /// training run).
    pub fn needs_path_profile(&self) -> bool {
        matches!(self, Scheme::Path { .. } | Scheme::KPath { .. } | Scheme::Inter { .. })
    }

    /// The k-iteration bound of a `Pk*` scheme, if any.
    pub fn kpath_k(&self) -> Option<u32> {
        match self {
            Scheme::KPath { k, .. } => Some(*k),
            _ => None,
        }
    }
}

/// Minimum fraction of the hottest block's frequency for a block to seed
/// a trace; colder blocks become singleton superblocks.
pub const SEED_FRACTION: f64 = 0.001;

/// Edge probability for "likely" in the edge-based enlarger (branch target
/// expansion, superblock-loop classification).
pub const LIKELY_THRESHOLD: f64 = 0.70;

/// Average trip count at or above which the edge-based enlarger unrolls
/// rather than peels.
pub const PEEL_MAX_AVG: f64 = 8.0;

/// Tunable parameters of formation (paper defaults; see DESIGN.md §6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FormConfig {
    /// Fraction of a superblock's head frequency with which it must
    /// complete for path-based enlargement to proceed ("user-specified high
    /// frequency"). The default admits dominant paths with a 2:1 internal
    /// split (e.g. the 75%-taken TTTF pattern of `alt`, or phased loops at
    /// 50%), which the paper's Figure 3 requires to enlarge; traces that
    /// mostly early-exit stay blocked.
    pub completion_threshold: f64,
    /// Maximum instructions per superblock after enlargement.
    pub max_superblock_instrs: usize,
    /// Grow path-selected traces upward (toward predecessors) as well as
    /// downward. The paper's implementation grows downward only; footnote 2
    /// predicts upward growth "will not noticeably improve the performance
    /// of our scheduled code" — this switch exists to test that prediction
    /// (see the `ablate` experiment).
    pub upward_growth: bool,
}

impl Default for FormConfig {
    fn default() -> Self {
        FormConfig {
            completion_threshold: 0.45,
            max_superblock_instrs: 512,
            upward_growth: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_names_match_paper() {
        assert_eq!(Scheme::BasicBlock.name(), "BB");
        assert_eq!(Scheme::M4.name(), "M4");
        assert_eq!(Scheme::M16.name(), "M16");
        assert_eq!(Scheme::P4.name(), "P4");
        assert_eq!(Scheme::P4E.name(), "P4e");
        assert_eq!(Scheme::PK2.name(), "Pk2");
        assert_eq!(Scheme::PK3.name(), "Pk3");
        assert_eq!(Scheme::PX4.name(), "Px4");
    }

    /// The whole scheme family round-trips through its canonical name in
    /// any capitalization, and canonical names are pairwise distinct — the
    /// property that keeps cache keys collision-free.
    #[test]
    fn scheme_family_round_trips_canonically() {
        let mut seen = std::collections::HashSet::new();
        for scheme in Scheme::FAMILY {
            let name = scheme.name();
            assert!(seen.insert(name.clone()), "duplicate canonical name {name}");
            assert_eq!(Scheme::parse(&name), Some(scheme), "{name}");
            assert_eq!(Scheme::parse(&name.to_ascii_uppercase()), Some(scheme), "{name}");
            assert_eq!(Scheme::parse(&name.to_ascii_lowercase()), Some(scheme), "{name}");
            // parse().name() is idempotent: every spelling canonicalizes to
            // one string.
            assert_eq!(Scheme::parse(&name.to_ascii_uppercase()).unwrap().name(), name);
        }
        for bogus in ["", "B", "Q4", "Pk", "Pk1", "Pk4", "Px2", "M", "P", "P4x", "4"] {
            assert_eq!(Scheme::parse(bogus), None, "{bogus:?} must not parse");
        }
    }

    #[test]
    fn path_schemes_need_path_profiles() {
        assert!(Scheme::P4.needs_path_profile());
        assert!(Scheme::P4E.needs_path_profile());
        assert!(Scheme::PK2.needs_path_profile());
        assert!(Scheme::PK3.needs_path_profile());
        assert!(Scheme::PX4.needs_path_profile());
        assert!(!Scheme::M4.needs_path_profile());
        assert!(!Scheme::BasicBlock.needs_path_profile());
        assert_eq!(Scheme::PK2.kpath_k(), Some(2));
        assert_eq!(Scheme::PX4.kpath_k(), None);
        for scheme in Scheme::FAMILY {
            assert_eq!(scheme.needs_profile(), scheme != Scheme::BasicBlock, "{}", scheme.name());
            assert!(scheme.needs_profile() || !scheme.needs_path_profile(), "{}", scheme.name());
        }
    }

    #[test]
    fn defaults_are_sane() {
        let c = FormConfig::default();
        assert!(c.completion_threshold > 0.0 && c.completion_threshold <= 1.0);
        assert!(c.max_superblock_instrs >= 64);
    }
}
